#include "serve/server.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <cstdio>
#include <memory>
#include <utility>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"
#include "serve/transport.h"
#include "util/string_util.h"

namespace prefcover {
namespace serve {

std::string HandleServeLine(QueryEngine* engine, const std::string& line,
                            bool* quit) {
  std::string_view trimmed = TrimWhitespace(line);
  if (trimmed == "quit") {
    *quit = true;
    return "OK bye";
  }
  if (trimmed == "metrics") {
    std::string text = obs::RenderPrometheusText(
        obs::MetricsRegistry::Global().Snapshot());
    // Both transports append the protocol newline; the exposition already
    // ends with one after "# EOF".
    if (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }
  if (trimmed == "stats") {
    QueryEngineStats stats = engine->Stats();
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "OK stats requests=%llu reloads=%llu",
                  static_cast<unsigned long long>(stats.requests),
                  static_cast<unsigned long long>(stats.index_reloads));
    return buffer;
  }
  if (trimmed.rfind("reload ", 0) == 0) {
    std::string path(TrimWhitespace(trimmed.substr(7)));
    auto index = ServingIndex::Load(path);
    if (!index.ok()) return FormatErrorLine(index.status());
    auto shared = std::make_shared<const ServingIndex>(std::move(*index));
    size_t retained = shared->NumRetained();
    Status st = engine->SwapIndex(std::move(shared));
    if (!st.ok()) return FormatErrorLine(st);
    return "OK reload " + std::to_string(retained);
  }
  auto request = ParseRequest(trimmed);
  if (!request.ok()) return FormatErrorLine(request.status());
  return engine->Answer(*request).line;
}

#if defined(__unix__) || defined(__APPLE__)

bool ServeLineSessionLoop(int fd, const LineHandler& handler) {
  static obs::Counter* read_errors =
      obs::MetricsRegistry::Global().GetCounter("serve.net.read_errors");
  static obs::Counter* write_errors =
      obs::MetricsRegistry::Global().GetCounter("serve.net.write_errors");
  static obs::Counter* overlong_lines =
      obs::MetricsRegistry::Global().GetCounter("serve.overlong_lines");

  LineChunker chunker;
  char chunk[4096];
  bool keep_serving = true;
  for (;;) {
    auto got = ReadSome(fd, chunk, sizeof(chunk));
    if (!got.ok()) {
      // This client's socket died (possibly by injection); the server
      // rides on.
      read_errors->Increment();
      break;
    }
    if (*got == 0) break;  // clean EOF
    chunker.Append(std::string_view(chunk, *got));
    LineChunker::Line line;
    while (chunker.Next(&line)) {
      if (line.overlong) {
        overlong_lines->Increment();
        std::string reply =
            FormatErrorLine(Status::InvalidArgument(
                "request line exceeds " +
                std::to_string(kMaxRequestLineBytes) + " bytes")) +
            "\n";
        if (!WriteFully(fd, reply.data(), reply.size()).ok()) {
          write_errors->Increment();
          ::close(fd);
          return keep_serving;
        }
        continue;
      }
      // Multiplex framing: untag before the handler, re-tag the reply.
      uint64_t tag = 0;
      std::string_view payload;
      const bool tagged = ParseTaggedLine(line.text, &tag, &payload);
      const std::string request =
          tagged ? std::string(payload) : line.text;
      bool stop_session = false;
      bool stop_server = false;
      std::string response = handler(request, &stop_session, &stop_server);
      if (stop_server) keep_serving = false;
      if (tagged) response = FormatTaggedLine(tag, response);
      response.push_back('\n');
      if (!WriteFully(fd, response.data(), response.size()).ok()) {
        write_errors->Increment();
        stop_session = true;
      }
      if (stop_session) {
        ::close(fd);
        return keep_serving;
      }
    }
  }
  ::close(fd);
  return keep_serving;
}

bool ServeConnectionLoop(QueryEngine* engine, int fd) {
  return ServeLineSessionLoop(
      fd, [engine](const std::string& line, bool* stop_session,
                   bool* stop_server) -> std::string {
        if (TrimWhitespace(line) == "shutdown") {
          *stop_session = true;
          *stop_server = true;
          return "OK bye";
        }
        bool quit = false;
        std::string response = HandleServeLine(engine, line, &quit);
        if (quit) *stop_session = true;
        return response;
      });
}

#endif  // __unix__ || __APPLE__

}  // namespace serve
}  // namespace prefcover
