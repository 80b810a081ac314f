// Reproduces Fig. 6: total test (prediction) time per method, user
// cold-start scenario. Each method is trained once per dataset profile and
// its wall-clock prediction time over the evaluation set is timed
// bench::kTestTimingPasses times; a cell is the median pass with the
// fastest and slowest in brackets.
//
// Expected shape (paper): the CF baselines are fastest (a pair in, a score
// out); HIRE pays for multi-layer MHSA but stays mid-pack; the
// meta-learning baseline is slowest because of per-user test-time
// adaptation.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "utils/string_utils.h"
#include "utils/table_printer.h"

int main() {
  using namespace hire;
  bench::BenchOptions options = bench::BenchOptions::FromEnv();
  options.num_seeds = 1;

  struct Profile {
    std::string name;
    data::SyntheticConfig config;
    double train_fraction;
  };
  const std::vector<Profile> profiles = {
      {"MovieLens-1M", data::MovieLens1MProfile(options.dataset_scale), 0.8},
      {"Bookcrossing", data::BookcrossingProfile(options.dataset_scale), 0.7},
      {"Douban", data::DoubanProfile(options.dataset_scale), 0.7},
  };

  std::cout << "Fig. 6 reproduction — total test time (seconds), user "
               "cold-start: median of "
            << bench::kTestTimingPasses << " passes (min-max)\n";
  TablePrinter table({"Method", "MovieLens-1M", "Bookcrossing", "Douban",
                      "Total"});

  const std::vector<std::string> methods = {
      "HIRE", "NeuMF", "Wide&Deep", "DeepFM", "AFN", "GraphRec", "MeLU-FO",
      "ItemKNN", "Popularity"};

  // Collect per-method, per-dataset test seconds: median, min, max.
  std::vector<std::vector<double>> seconds(
      methods.size(), std::vector<double>(profiles.size(), -1.0));
  std::vector<std::vector<double>> fastest = seconds;
  std::vector<std::vector<double>> slowest = seconds;

  for (size_t p = 0; p < profiles.size(); ++p) {
    const data::Dataset dataset =
        data::GenerateSyntheticDataset(profiles[p].config, 20240601);
    Rng split_rng(4242);
    const data::ColdStartSplit split = data::MakeColdStartSplit(
        dataset, data::ColdStartScenario::kUserCold,
        profiles[p].train_fraction, &split_rng);
    for (size_t m = 0; m < methods.size(); ++m) {
      if (methods[m] == "GraphRec" && !dataset.has_social_network()) {
        continue;  // paper: GraphRec applies to Douban only
      }
      bench::MethodResult result;
      bench::RunMethodOnce(methods[m], dataset, split, options, 5150,
                           &result);
      seconds[m][p] = result.total_test_seconds;
      fastest[m][p] = result.total_test_seconds_min;
      slowest[m][p] = result.total_test_seconds_max;
    }
  }

  for (size_t m = 0; m < methods.size(); ++m) {
    std::vector<std::string> row{methods[m]};
    double total = 0.0;
    for (size_t p = 0; p < profiles.size(); ++p) {
      if (seconds[m][p] < 0) {
        row.push_back("n/a");
      } else {
        row.push_back(FormatDouble(seconds[m][p], 3) + " (" +
                      FormatDouble(fastest[m][p], 3) + "-" +
                      FormatDouble(slowest[m][p], 3) + ")");
        total += seconds[m][p];
      }
    }
    row.push_back(FormatDouble(total, 3));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}
