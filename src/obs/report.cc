#include "obs/report.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/cpu_features.h"

namespace m2td::obs {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void WriteQuoted(std::ostream& os, std::string_view text) {
  std::string escaped;
  internal::JsonEscape(text, &escaped);
  os << "\"" << escaped << "\"";
}

}  // namespace

void EnsureFaultCountersRegistered() {
  // Names must match the Add()/Increment() sites in src/robust,
  // src/linalg/rsvd.cc, and src/tensor/tucker.cc; a typo here silently
  // forks a second counter, so keep the list in sync.
  static const char* const kNames[] = {
      "robust.watchdog.stalls",   "robust.watchdog.hard_fires",
      "robust.failpoint_fires",   "robust.cancel.fired",
      "robust.retry_attempts",    "robust.retry_success",
      "robust.retry_exhausted",   "robust.checkpoint_marks",
      "linalg.rsvd.sketches",     "linalg.rsvd.power_iterations",
      "linalg.rsvd.exact_fallbacks",
      "hooi.init.randomized",     "hooi.init.deterministic",
      // Distributed transport + scheduler counters (src/mapreduce/
      // transport.cc, src/robust/netfault.cc, src/core/dm2td_dist.cc):
      // force-registered to zero so run_report.json keys are stable for
      // tools/compare_runs.py whatever the backend.
      "dist.net.accepts",         "dist.net.connects",
      "dist.net.redials",         "dist.net.reconnects",
      "dist.net.disconnects",     "dist.net.frames_sent",
      "dist.net.frames_received", "dist.net.deadline_expiries",
      "dist.net.faults_injected", "dist.net.injected_drops",
      "dist.net.injected_delays", "dist.net.injected_truncations",
      "dist.net.injected_corruptions",
      "dist.speculative_launched", "dist.speculative_won",
      "dist.speculative_cancelled",
      // SIMD dispatch + eigensolver counters (src/linalg/simd.cc,
      // src/linalg/eigen.cc).
      "linalg.simd.dispatch_avx2", "linalg.simd.dispatch_neon",
      "linalg.simd.dispatch_scalar",
      "linalg.eigen.jacobi_solves", "linalg.eigen.jacobi_sweeps",
      "linalg.eigen.ql_solves",     "linalg.eigen.ql_iterations",
      "linalg.eigen.nonconverged",
  };
  for (const char* name : kNames) GetCounter(name);
}

void RunReport::WriteJson(std::ostream& os) const {
  os << "{\"schema_version\":" << kRunReportSchemaVersion
     << ",\"kind\":\"m2td_run_report\",\"tool\":";
  WriteQuoted(os, tool_);
  os << ",\"command\":";
  WriteQuoted(os, command_);
  os << ",\"generated_unix_time\":" << static_cast<long long>(
      std::time(nullptr));

  os << ",\"build\":{\"build_type\":";
#if defined(M2TD_BUILD_TYPE)
  WriteQuoted(os, M2TD_BUILD_TYPE);
#else
  WriteQuoted(os, "unknown");
#endif
  os << ",\"compiler\":";
#if defined(__VERSION__)
  WriteQuoted(os, __VERSION__);
#else
  WriteQuoted(os, "unknown");
#endif
  os << ",\"alloc_tracking\":"
     << (AllocTrackingCompiledIn() ? "true" : "false") << "}";

  os << ",\"hardware\":{\"hardware_threads\":"
     << std::thread::hardware_concurrency()
     << ",\"page_size_bytes\":" << sysconf(_SC_PAGESIZE);
  // Detected ISA extensions plus the SIMD level the kernels dispatch to
  // (detected capped by M2TD_FORCE_ISA). compare_runs.py refuses to diff
  // reports whose simd_dispatch differs — a perf delta between ISA
  // levels is a hardware delta, not a regression.
  const util::CpuFeatures& cpu = util::HostCpuFeatures();
  os << ",\"cpu_features\":[";
  {
    bool first = true;
    auto emit = [&](bool present, const char* name) {
      if (!present) return;
      if (!first) os << ",";
      first = false;
      WriteQuoted(os, name);
    };
    emit(cpu.avx2, "avx2");
    emit(cpu.fma, "fma");
    emit(cpu.neon, "neon");
  }
  os << "],\"simd_dispatch\":";
  WriteQuoted(os, util::SimdIsaName(util::ResolvedSimdIsa()));
  os << "}";

  os << ",\"flags\":{";
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    if (i) os << ",";
    WriteQuoted(os, flags_[i].first);
    os << ":";
    WriteQuoted(os, flags_[i].second);
  }
  os << "}";

  if (has_seed_) os << ",\"seed\":" << seed_;

  os << ",\"datasets\":[";
  for (std::size_t i = 0; i < datasets_.size(); ++i) {
    if (i) os << ",";
    os << "{\"path\":";
    WriteQuoted(os, datasets_[i].path);
    os << ",\"crc32\":" << datasets_[i].crc32
       << ",\"bytes\":" << datasets_[i].bytes << "}";
  }
  os << "]";

  // Per-phase attribution straight from the tracer: wall clock, on-CPU
  // time, and allocation volume per span name, in first-seen order.
  os << ",\"phases\":[";
  const std::vector<SpanTotal> totals = Tracer::Get().AggregateTotals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (i) os << ",";
    const SpanTotal& total = totals[i];
    os << "{\"name\":";
    WriteQuoted(os, total.name);
    os << ",\"count\":" << total.count
       << ",\"wall_seconds\":" << FormatDouble(total.total_seconds)
       << ",\"cpu_seconds\":" << FormatDouble(total.cpu_seconds)
       << ",\"alloc_bytes\":" << total.alloc_bytes
       << ",\"alloc_count\":" << total.alloc_count << "}";
  }
  os << "]";

  // Resource profile: scalar peaks plus the RSS time series (timestamps
  // in tracer-epoch microseconds, values in bytes).
  os << ",\"resources\":{";
  ResourceUsage last = samples_.empty() ? ReadResourceUsage() : samples_.back();
  std::uint64_t peak_rss = last.peak_rss_bytes;
  std::uint32_t max_threads = 0;
  for (const ResourceUsage& s : samples_) {
    peak_rss = std::max(peak_rss, s.peak_rss_bytes);
    peak_rss = std::max(peak_rss, s.rss_bytes);
    max_threads = std::max(max_threads, s.num_threads);
  }
  os << "\"peak_rss_bytes\":" << peak_rss
     << ",\"minor_faults\":" << last.minor_faults
     << ",\"major_faults\":" << last.major_faults
     << ",\"utime_seconds\":" << FormatDouble(last.utime_seconds)
     << ",\"stime_seconds\":" << FormatDouble(last.stime_seconds)
     << ",\"read_bytes\":" << last.read_bytes
     << ",\"write_bytes\":" << last.write_bytes
     << ",\"max_threads\":" << max_threads;
  const AllocStats alloc = GlobalAllocStats();
  os << ",\"alloc_bytes_total\":" << alloc.bytes
     << ",\"alloc_count_total\":" << alloc.count;
  os << ",\"rss_samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i) os << ",";
    os << "[" << FormatDouble(samples_[i].ts_us * 1e-6) << ","
       << samples_[i].rss_bytes << "]";
  }
  os << "]}";

  os << ",\"metrics\":";
  EnsureFaultCountersRegistered();
  WriteMetricsJson(os);

  os << ",\"exit\":{\"status\":" << exit_status_ << ",\"outcome\":";
  WriteQuoted(os, exit_outcome_);
  os << ",\"message\":";
  WriteQuoted(os, exit_message_);
  os << "}}";
}

Status RunReport::WriteFile(const std::string& path) const {
  return util::AtomicWriteFile(path, [this](const std::string& tmp) {
    std::ofstream out(tmp);
    if (!out) {
      return Status::IOError("cannot open run report '" + tmp + "'");
    }
    WriteJson(out);
    out << "\n";
    out.flush();
    if (!out) {
      return Status::IOError("run report write failed for '" + tmp + "'");
    }
    return Status::OK();
  });
}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

namespace {

Status WriteOpenMetricsFile(const std::string& path) {
  return util::AtomicWriteFile(path, [](const std::string& tmp) {
    std::ofstream out(tmp);
    if (!out) {
      return Status::IOError("cannot open metrics snapshot '" + tmp + "'");
    }
    WriteOpenMetrics(out);
    out.flush();
    if (!out) {
      return Status::IOError("metrics snapshot write failed for '" + tmp +
                             "'");
    }
    return Status::OK();
  });
}

}  // namespace

void MetricsSnapshotter::Start(MetricsSnapshotterOptions options) {
  std::unique_lock<std::mutex> lock(mu_);
  if (started_ || options.path.empty()) return;
  started_ = true;
  stop_requested_ = false;
  thread_exited_ = false;
  path_ = options.path;
  lock.unlock();
  thread_ = std::thread([this, options = std::move(options)]() mutable {
    Loop(std::move(options));
  });
}

void MetricsSnapshotter::Stop() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    stop_requested_ = true;
    path = path_;
  }
  cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
  (void)WriteOpenMetricsFile(path);  // final snapshot; best-effort
}

bool MetricsSnapshotter::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !thread_exited_;
}

void MetricsSnapshotter::Loop(MetricsSnapshotterOptions options) {
  const int interval_ms = std::max(options.interval_ms, 10);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return stop_requested_; })) {
        thread_exited_ = true;
        return;
      }
    }
    if (options.cancelled && options.cancelled()) {
      std::lock_guard<std::mutex> lock(mu_);
      thread_exited_ = true;
      return;
    }
    (void)WriteOpenMetricsFile(options.path);  // best-effort each tick
  }
}

}  // namespace m2td::obs
