// Pendulum ensemble study: the workflow a simulation analyst would run.
//
// Walks the full public API surface on the double pendulum:
//   - inspect the parameter space and the ensemble budget arithmetic,
//   - compare all three M2TD variants and all three conventional samplers,
//   - examine the effect of the pivot choice (Table VIII style),
//   - persist the stitched join tensor and the result table to disk.
//
// Build & run:  ./build/examples/pendulum_study [output_dir]

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/je_stitch.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "io/table.h"
#include "io/tensor_io.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "pendulum_study_out";
  std::filesystem::create_directories(out_dir);

  m2td::ensemble::ModelOptions options;
  options.parameter_resolution = 12;
  options.time_resolution = 12;
  auto model = m2td::ensemble::MakeDoublePendulumModel(options);
  M2TD_CHECK(model.ok()) << model.status();

  const m2td::ensemble::ParameterSpace& space = (*model)->space();
  std::cout << "Parameter space of '" << (*model)->name() << "':\n";
  for (std::size_t m = 0; m < space.num_modes(); ++m) {
    const auto& def = space.def(m);
    std::cout << "  mode " << m << ": " << def.name << " in ["
              << def.min_value << ", " << def.max_value << "], "
              << def.resolution << " values\n";
  }
  std::cout << "Full simulation space: " << space.NumCells() << " cells; a "
            << "budget of 2*" << space.Resolution(1) << "^2 = "
            << 2 * space.Resolution(1) * space.Resolution(1)
            << " simulations covers "
            << 100.0 * 2 * space.Resolution(1) * space.Resolution(1) /
                   static_cast<double>(space.NumCells() / space.Resolution(0))
            << "% of the parameter grid.\n\n";

  auto ground_truth = m2td::ensemble::BuildFullTensor(model->get());
  M2TD_CHECK(ground_truth.ok()) << ground_truth.status();

  // --- Method comparison at the default pivot (time). ---
  auto partition = m2td::core::MakePartition(5, {0});
  M2TD_CHECK(partition.ok()) << partition.status();

  m2td::io::TablePrinter results(
      {"Scheme", "Accuracy", "Decompose (ms)", "nnz"});
  std::uint64_t m2td_cells = 0;
  for (m2td::core::M2tdMethod method :
       {m2td::core::M2tdMethod::kAvg, m2td::core::M2tdMethod::kConcat,
        m2td::core::M2tdMethod::kSelect}) {
    auto outcome = m2td::core::RunM2td(model->get(), *ground_truth,
                                       *partition, method, /*rank=*/5, {});
    M2TD_CHECK(outcome.ok()) << outcome.status();
    m2td_cells = outcome->budget_cells;
    results.AddRow({outcome->scheme,
                    m2td::io::TablePrinter::Cell(outcome->accuracy, 3),
                    m2td::io::TablePrinter::Cell(
                        outcome->decompose_seconds * 1e3, 1),
                    std::to_string(outcome->nnz)});
  }
  const std::uint64_t budget = m2td_cells / space.Resolution(0);
  for (m2td::ensemble::ConventionalScheme scheme :
       {m2td::ensemble::ConventionalScheme::kRandom,
        m2td::ensemble::ConventionalScheme::kGrid,
        m2td::ensemble::ConventionalScheme::kSlice}) {
    auto outcome = m2td::core::RunConventional(
        model->get(), *ground_truth, scheme, budget, /*rank=*/5, /*seed=*/7);
    M2TD_CHECK(outcome.ok()) << outcome.status();
    results.AddRow({outcome->scheme,
                    m2td::io::TablePrinter::SciCell(outcome->accuracy),
                    m2td::io::TablePrinter::Cell(
                        outcome->decompose_seconds * 1e3, 1),
                    std::to_string(outcome->nnz)});
  }
  std::cout << "Scheme comparison (rank 5, budget " << budget
            << " simulations):\n";
  results.Print(std::cout);

  // --- Pivot sensitivity: time vs the mass of the first pendulum. ---
  std::cout << "\nPivot sensitivity (M2TD-SELECT):\n";
  for (const auto& [label, pivot, side1] :
       std::vector<std::tuple<std::string, std::size_t,
                              std::vector<std::size_t>>>{
           {"t", 0, {1, 3}}, {"m1", 3, {1, 0}}}) {
    auto p = m2td::core::MakePartition(5, {pivot}, side1);
    M2TD_CHECK(p.ok()) << p.status();
    auto outcome =
        m2td::core::RunM2td(model->get(), *ground_truth, *p,
                            m2td::core::M2tdMethod::kSelect, /*rank=*/5, {});
    M2TD_CHECK(outcome.ok()) << outcome.status();
    std::cout << "  pivot " << label << ": accuracy "
              << m2td::io::TablePrinter::Cell(outcome->accuracy, 3) << "\n";
  }

  // --- Persist artifacts: the stitched join tensor and the table. ---
  auto subs = m2td::core::BuildSubEnsembles(model->get(), *partition, {});
  M2TD_CHECK(subs.ok()) << subs.status();
  auto join = m2td::core::JeStitch(*subs, *partition, space.Shape(), {});
  M2TD_CHECK(join.ok()) << join.status();
  const std::string join_path = out_dir + "/join_tensor.bin";
  M2TD_CHECK(m2td::io::SaveSparseBinary(*join, join_path).ok());
  M2TD_CHECK(results.WriteCsv(out_dir + "/scheme_comparison.csv").ok());

  // Round-trip sanity: reload and verify.
  auto reloaded = m2td::io::LoadSparseBinary(join_path);
  M2TD_CHECK(reloaded.ok()) << reloaded.status();
  M2TD_CHECK(reloaded->NumNonZeros() == join->NumNonZeros());

  std::cout << "\nArtifacts written to " << out_dir << "/ (join tensor: "
            << join->NumNonZeros() << " nnz, "
            << std::filesystem::file_size(join_path) / 1024 << " KiB)\n";
  return 0;
}
