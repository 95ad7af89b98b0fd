#include "synth/dataset_profiles.h"

#include <algorithm>
#include <utility>

#include "synth/preference_model.h"
#include "synth/session_generator.h"

namespace prefcover {

namespace {

// Table 2 of the paper, verbatim.
constexpr ProfileSpec kSpecs[] = {
    {"PE", 10'782'918, 10'782'918, 1'921'701, 9'250'131,
     Variant::kIndependent},
    {"PF", 8'630'541, 8'630'541, 1'681'625, 7'182'318,
     Variant::kIndependent},
    {"PM", 8'154'160, 8'154'160, 1'396'674, 5'826'429, Variant::kNormalized},
    {"YC", 9'249'729, 259'579, 52'739, 249'008, Variant::kIndependent},
};

// Deterministic per-profile catalog/model parameterization. Category count
// scales with the catalog so category sizes stay realistic.
CatalogParams MakeCatalogParams(const ProfileSpec& spec, uint32_t num_items) {
  CatalogParams params;
  params.num_items = num_items;
  params.num_categories =
      std::max<uint32_t>(1, num_items / 40);  // ~40 items per category
  params.num_brands = std::max<uint32_t>(2, num_items / 500);
  params.num_price_tiers = 5;
  params.category_size_skew = spec.natural_variant == Variant::kNormalized
                                  ? 0.5   // Motors: flatter, specialist parts
                                  : 0.9;  // head-heavy consumer categories
  return params;
}

PreferenceModelParams MakeModelParams(const ProfileSpec& spec) {
  PreferenceModelParams params;
  // Variant groups contribute ~1.8 edges per item on average; the
  // cross-product degree makes up the rest of the paper's edges/items
  // ratio.
  double ratio = static_cast<double>(spec.edges) /
                 static_cast<double>(spec.items);
  params.mean_alternatives = std::max(0.5, ratio - 1.8);
  params.normalized = spec.natural_variant == Variant::kNormalized;
  if (params.normalized) {
    // Motors: very specific parts; small variant groups (a part either
    // fits or it does not) and few acceptable cross-product alternatives.
    params.variant_group_mean_size = 1.8;
    params.base_acceptance_lo = 0.1;
    params.base_acceptance_hi = 0.4;
  }
  params.popularity_skew = 1.05;
  return params;
}

struct ScaledCounts {
  uint32_t items;
  uint64_t sessions;
};

Result<ScaledCounts> ScaleSpec(const ProfileSpec& spec, double scale_factor) {
  if (!(scale_factor > 0.0) || scale_factor > 1.0) {
    return Status::InvalidArgument("scale_factor must be in (0, 1]");
  }
  ScaledCounts out;
  out.items = static_cast<uint32_t>(
      std::max<uint64_t>(10, static_cast<uint64_t>(
                                 static_cast<double>(spec.items) *
                                 scale_factor)));
  out.sessions = std::max<uint64_t>(
      100, static_cast<uint64_t>(static_cast<double>(spec.sessions) *
                                 scale_factor));
  return out;
}

}  // namespace

const ProfileSpec& GetProfileSpec(DatasetProfile profile) {
  return kSpecs[static_cast<int>(profile)];
}

Result<DatasetProfile> ParseProfileName(const std::string& name) {
  if (name == "PE") return DatasetProfile::kPE;
  if (name == "PF") return DatasetProfile::kPF;
  if (name == "PM") return DatasetProfile::kPM;
  if (name == "YC") return DatasetProfile::kYC;
  return Status::InvalidArgument("unknown profile '" + name +
                                 "' (expected PE|PF|PM|YC)");
}

Result<Clickstream> GenerateProfileClickstream(DatasetProfile profile,
                                               double scale_factor,
                                               uint64_t seed) {
  const ProfileSpec& spec = GetProfileSpec(profile);
  PREFCOVER_ASSIGN_OR_RETURN(ScaledCounts counts,
                             ScaleSpec(spec, scale_factor));
  Rng rng(seed ^ 0xDA7A5E7ULL);

  // The catalog outlives the model and the session generation below (the
  // model holds a pointer into it).
  PREFCOVER_ASSIGN_OR_RETURN(
      Catalog catalog,
      Catalog::Generate(MakeCatalogParams(spec, counts.items), &rng));
  PREFCOVER_ASSIGN_OR_RETURN(
      PreferenceModel model,
      PreferenceModel::Build(&catalog, MakeModelParams(spec), &rng));

  SessionGeneratorParams session_params;
  session_params.num_sessions = counts.sessions;
  session_params.behavior =
      spec.natural_variant == Variant::kNormalized
          ? SessionGeneratorParams::ClickBehavior::kSingleAlternative
          : SessionGeneratorParams::ClickBehavior::kIndependent;
  if (spec.natural_variant == Variant::kIndependent) {
    // Low-intent browsing clicks give constructed graphs the weak-edge
    // tail (and edge density) real clickstreams produce.
    session_params.noise_clicks_mean = 0.8;
  }
  // YC is dominated by browse-only sessions (259,579 purchases out of
  // 9,249,729 sessions); the private sets were filtered to purchases only.
  session_params.browse_only_share =
      1.0 - static_cast<double>(spec.purchases) /
                static_cast<double>(spec.sessions);
  return GenerateSessions(model, session_params, &rng);
}

Result<PreferenceGraph> GenerateProfileGraph(DatasetProfile profile,
                                             double scale_factor,
                                             uint64_t seed) {
  const ProfileSpec& spec = GetProfileSpec(profile);
  PREFCOVER_ASSIGN_OR_RETURN(ScaledCounts counts,
                             ScaleSpec(spec, scale_factor));
  return GenerateProfileGraphWithNodes(profile, counts.items, seed);
}

Result<PreferenceGraph> GenerateProfileGraphWithNodes(DatasetProfile profile,
                                                      uint32_t num_nodes,
                                                      uint64_t seed) {
  const ProfileSpec& spec = GetProfileSpec(profile);
  if (num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  Rng rng(seed ^ 0x6A3A9ULL);
  PREFCOVER_ASSIGN_OR_RETURN(
      Catalog catalog,
      Catalog::Generate(MakeCatalogParams(spec, num_nodes), &rng));
  PREFCOVER_ASSIGN_OR_RETURN(
      PreferenceModel model,
      PreferenceModel::Build(&catalog, MakeModelParams(spec), &rng));
  // The graph is self-contained (owns its arrays); the catalog and model
  // can be dropped, so it moves out instead of being copied.
  return std::move(model).graph();
}

namespace {

constexpr ScaleTierSpec kScaleTiers[] = {
    {"S", 20'000, 100},
    {"M", 200'000, 100},
    {"L", 1'000'000, 100},
    {"XL", 10'000'000, 100},
};

}  // namespace

const ScaleTierSpec& GetScaleTierSpec(ScaleTier tier) {
  return kScaleTiers[static_cast<int>(tier)];
}

Result<ScaleTier> ParseScaleTierName(const std::string& name) {
  if (name == "S") return ScaleTier::kS;
  if (name == "M") return ScaleTier::kM;
  if (name == "L") return ScaleTier::kL;
  if (name == "XL") return ScaleTier::kXL;
  return Status::InvalidArgument("unknown scale tier '" + name +
                                 "' (expected S|M|L|XL)");
}

Result<PreferenceGraph> GenerateScaleTierGraph(ScaleTier tier,
                                               uint64_t seed) {
  const ScaleTierSpec& spec = GetScaleTierSpec(tier);
  return GenerateProfileGraphWithNodes(DatasetProfile::kPE, spec.num_nodes,
                                       seed);
}

}  // namespace prefcover
