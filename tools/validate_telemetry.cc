// validate_telemetry — checks the observability artifacts a hire_cli run
// produces. Used by the `trace_validate` ctest and handy for eyeballing a
// capture by hand.
//
// Usage:
//   validate_telemetry --trace=t.json --expect-spans=train_step,mhsa_forward
//       --metrics=m.jsonl --min-steps=20
//
// Checks:
//   --trace        parses as one complete JSON document, declares
//                  "traceEvents", and contains every --expect-spans name
//   --metrics      every line parses as JSON; at least --min-steps records
//                  with "type":"step", each carrying loss / grad_norm /
//                  lr_scale / wall_s; at least one "metrics_snapshot" record
// Exits 0 when every requested check passes, 1 otherwise.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "utils/check.h"
#include "utils/flags.h"
#include "utils/string_utils.h"

namespace {

int g_failures = 0;

void Fail(const std::string& message) {
  std::cerr << "FAIL: " << message << "\n";
  ++g_failures;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HIRE_CHECK(in.is_open()) << "cannot open '" << path << "'";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CheckTrace(const std::string& path, const std::string& expect_spans) {
  const std::string text = ReadFile(path);
  std::string error;
  if (!hire::obs::JsonValidate(text, &error)) {
    Fail("trace '" + path + "' is not valid JSON: " + error);
    return;
  }
  if (text.find("\"traceEvents\"") == std::string::npos) {
    Fail("trace '" + path + "' has no \"traceEvents\" array");
  }
  for (const std::string& span : hire::Split(expect_spans, ',')) {
    if (span.empty()) continue;
    const std::string needle = "\"name\":\"" + span + "\"";
    if (text.find(needle) == std::string::npos) {
      Fail("trace '" + path + "' has no span named '" + span + "'");
    }
  }
  std::cout << "trace '" << path << "': valid JSON, " << text.size()
            << " bytes\n";
}

void CheckMetrics(const std::string& path, int64_t min_steps) {
  std::ifstream in(path);
  HIRE_CHECK(in.is_open()) << "cannot open '" << path << "'";
  int64_t line_number = 0;
  int64_t step_records = 0;
  int64_t snapshot_records = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string error;
    if (!hire::obs::JsonValidate(line, &error)) {
      Fail("metrics '" + path + "' line " + std::to_string(line_number) +
           " is not valid JSON: " + error);
      continue;
    }
    std::string type;
    if (!hire::obs::FindJsonStringField(line, "type", &type)) {
      Fail("metrics '" + path + "' line " + std::to_string(line_number) +
           " has no \"type\" field");
      continue;
    }
    if (type == "step") {
      ++step_records;
      double value = 0.0;
      for (const char* field : {"step", "loss", "grad_norm", "lr_scale",
                                "wall_s"}) {
        if (!hire::obs::FindJsonNumberField(line, field, &value)) {
          Fail("metrics '" + path + "' line " + std::to_string(line_number) +
               " step record lacks numeric \"" + field + "\"");
        }
      }
    } else if (type == "metrics_snapshot") {
      ++snapshot_records;
    }
  }
  if (step_records < min_steps) {
    Fail("metrics '" + path + "' holds " + std::to_string(step_records) +
         " step record(s); expected at least " + std::to_string(min_steps));
  }
  if (snapshot_records == 0) {
    Fail("metrics '" + path + "' has no metrics_snapshot record");
  }
  std::cout << "metrics '" << path << "': " << line_number << " line(s), "
            << step_records << " step record(s), " << snapshot_records
            << " snapshot(s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Parse skips argv[0] itself (there is no subcommand to strip here).
    const hire::Flags flags = hire::Flags::Parse(argc, argv);
    const std::string trace = flags.GetString("trace", "");
    const std::string metrics = flags.GetString("metrics", "");
    HIRE_CHECK(!trace.empty() || !metrics.empty())
        << "pass --trace=<file> and/or --metrics=<file>";
    if (!trace.empty()) {
      CheckTrace(trace, flags.GetString("expect-spans", ""));
    }
    if (!metrics.empty()) {
      CheckMetrics(metrics, flags.GetInt("min-steps", 1));
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
