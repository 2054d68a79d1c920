#include "usaas/shard_store.h"

#include <string>

#include "core/date.h"

namespace usaas::service {

ShardTouches ShardTouches::attach(core::telemetry::Registry* registry,
                                  std::string_view corpus, int mk,
                                  std::string_view suffix) {
  if (registry == nullptr || !registry->enabled()) return {};
  std::string label = core::month_key_start(mk).month_string();
  label += suffix;
  const auto touch = [&](const char* source) {
    return registry->counter(
        "usaas_shard_touches_total",
        "Per-shard query touches by answer source (summary merge vs "
        "record scan): the scanned-versus-summarized month signal",
        {{"corpus", std::string{corpus}}, {"shard", label},
         {"source", source}});
  };
  return {touch("summary"), touch("scan")};
}

IngestTelemetry IngestTelemetry::attach(core::telemetry::Registry* registry,
                                        std::string_view corpus) {
  IngestTelemetry out;
  if (registry == nullptr) return out;
  const char* names[] = {"count", "plan", "scatter", "summarize", "total"};
  for (std::size_t i = 0; i < out.phases.size(); ++i) {
    out.phases[i] = registry->histogram(
        "usaas_ingest_batch_seconds",
        "Per-batch ingest phase durations (two-pass counted pipeline)",
        {{"corpus", std::string{corpus}}, {"phase", names[i]}});
  }
  return out;
}

void IngestTelemetry::observe(const IngestStats& batch) const {
  const double laps[] = {batch.count_seconds, batch.plan_seconds,
                         batch.scatter_seconds, batch.summarize_seconds,
                         batch.total_seconds};
  for (std::size_t i = 0; i < phases.size(); ++i) phases[i].observe(laps[i]);
}

}  // namespace usaas::service
