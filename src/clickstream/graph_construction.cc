#include "clickstream/graph_construction.h"

#include "clickstream/streaming_construction.h"

namespace prefcover {

Result<PreferenceGraph> BuildPreferenceGraph(
    const Clickstream& clickstream, const GraphConstructionOptions& options) {
  StreamingGraphBuilder builder(options);
  for (const Session& session : clickstream.sessions()) {
    builder.AddSession(session);
  }
  return builder.Finish(clickstream.dictionary());
}

}  // namespace prefcover
