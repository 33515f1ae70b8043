// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload <serve-cold|serve-warm-wire|serve-evict|dataplane>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--commit <id>] [--source-sha <digest>]
//
// Prints the machine stamp, every measured value under the workload's own
// names, and as its last line one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exits 0 only when every output check passed.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--commit <id>] "
               "[--source-sha <digest>]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--out") options.out_dir = value;
      else if (flag == "--commit") options.commit = value;
      else if (flag == "--source-sha") options.source_sha = value;
      else usage("unknown flag");
    } catch (const std::logic_error&) {
      usage("malformed flag value");
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

/// The stamp every result carries, so no number is read without its
/// machine and code.
std::string stamp_json(const Options& options) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(online_cpus()) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"git_commit\": " + json_string(options.commit) +
         ", \"source_sha256\": " + json_string(options.source_sha) +
         ", \"workload\": " + json_string(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + json_number(options.seconds) +
         ", \"trace\": " + (options.trace ? "1" : "0") + "}";
}

Outcome run(const Options& options) {
  if (options.workload == "serve-cold") return run_serve_cold(options);
  if (options.workload == "serve-warm-wire")
    return run_serve_warm_wire(options);
  if (options.workload == "serve-evict") return run_serve_evict(options);
  if (options.workload == "dataplane") return run_dataplane(options);
  usage("unknown workload");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::string stamp = stamp_json(options);
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  Outcome out;
  const auto started = std::chrono::steady_clock::now();
  const double steal0 = host_steal_seconds();
  try {
    out = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  // Share of the machine's processor time the hypervisor gave to other
  // guests during the run: a run that reads slow with a high share was
  // slowed by the host, not the code.
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  out.detail("host_steal_share", (host_steal_seconds() - steal0) /
                                     (wall_s * online_cpus()));

  std::string metrics;
  std::string shown;
  for (const MetricSpec& spec :
       options.trace ? std::span<const MetricSpec>(kPerLayer)
                     : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = out.metrics.find(spec.name);
    // Per-layer metrics of a layer the workload does not exercise read 0.
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    out.check(options.trace || it != out.metrics.end(),
              "every end-to-end metric measured");
    out.check(std::isfinite(value), "every metric finite");
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " +
               json_number(std::isfinite(value) ? value : 0.0) +
               ", \"unit\": " + json_string(spec.unit) + "}";
    shown += "metric " + std::string(spec.name) + " " + json_number(value) +
             " " + spec.unit + "\n";
  }
  const double fail_ratio =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  out.detail("fail_ratio", fail_ratio);
  out.check(out.attempted > 0, "at least one operation attempted");

  std::string details;
  for (const auto& [name, value] : out.details)
    details += (details.empty() ? "" : ", ") + json_string(name) + ": " +
               json_string(value);
  std::string violations;
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
    violations += (violations.empty() ? "" : ", ") + json_string(v);
  }
  for (const auto& [name, value] : out.details)
    std::printf("%s %s\n", name.c_str(), value.c_str());
  std::fputs(shown.c_str(), stdout);

  // The run report: stamp, every value under the workload's own names, and
  // the result metrics.
  std::filesystem::create_directories(options.out_dir);
  const std::string report_path =
      options.out_dir + "/report-" + options.workload + "-seed" +
      std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
      ".json";
  std::ofstream(report_path) << "{\"stamp\": " << stamp << ", \"details\": {"
                             << details << "}, \"violations\": ["
                             << violations << "], \"metrics\": {" << metrics
                             << "}}\n";

  const bool correct = out.violations.empty() && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
