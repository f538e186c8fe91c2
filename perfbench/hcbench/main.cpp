// hcbench: one run of one benchmark workload. Prints report lines
// (prefixed "# ") and, last, one JSON object with the op accounting and
// every metric it measured by name. perfbench/run.py builds this binary,
// runs it and turns that object into the benchmark's result line.
//
//   hcbench --workload <serve_hot|serve_cold|stripe_faulted|des_contended>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>] [--corrupt <n>]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hcbench: %s\nusage: hcbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--corrupt <n>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return v;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        usage("--seconds needs a number in (0, 600], got '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--corrupt") {
      args.corrupt = parse_uint(flag, value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Result result;
  try {
    if (args.workload == "serve_hot") {
      result = perfbench::run_serve(args, true);
    } else if (args.workload == "serve_cold") {
      result = perfbench::run_serve(args, false);
    } else if (args.workload == "stripe_faulted") {
      result = perfbench::run_stripe(args);
    } else if (args.workload == "des_contended") {
      result = perfbench::run_des(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcbench %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& line : result.notes) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
