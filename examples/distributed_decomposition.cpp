// Distributed decomposition demo: D-M2TD with its map and reduce tasks on
// the shared thread pool.
//
// Shows the three-phase structure of Section VI-D — parallel sub-tensor
// decomposition, parallel JE-stitching, parallel core recovery — with
// per-phase timing and shuffle volumes, and verifies the distributed
// result is identical to the single-threaded M2TD decomposition.
//
// Build & run:  ./build/examples/distributed_decomposition [workers]

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/dm2td.h"
#include "core/experiment.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/table.h"
#include "tensor/tucker.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
  M2TD_CHECK(workers > 0) << "workers must be positive";

  m2td::ensemble::ModelOptions options;
  options.parameter_resolution = 12;
  options.time_resolution = 12;
  auto model = m2td::ensemble::MakeTriplePendulumModel(options);
  M2TD_CHECK(model.ok()) << model.status();

  auto partition = m2td::core::MakePartition(5, {0});
  M2TD_CHECK(partition.ok()) << partition.status();
  auto subs = m2td::core::BuildSubEnsembles(model->get(), *partition, {});
  M2TD_CHECK(subs.ok()) << subs.status();
  std::cout << "Sub-ensembles: " << subs->x1.NumNonZeros() << " + "
            << subs->x2.NumNonZeros() << " cells ("
            << subs->cells_evaluated << " simulated)\n\n";

  // --- Distributed decomposition. ---
  m2td::core::DM2tdOptions dist_options;
  dist_options.method = m2td::core::M2tdMethod::kSelect;
  dist_options.ranks = m2td::core::UniformRanks(**model, 5);
  dist_options.num_workers = workers;
  auto dist = m2td::core::DM2tdDecompose(*subs, *partition,
                                         (*model)->space().Shape(),
                                         dist_options);
  M2TD_CHECK(dist.ok()) << dist.status();

  m2td::io::TablePrinter phases({"Phase", "map (ms)", "shuffle (ms)",
                                 "reduce (ms)", "intermediate pairs"});
  auto add_phase = [&phases](const std::string& name,
                             const m2td::mapreduce::JobStats& stats) {
    phases.AddRow({name,
                   m2td::io::TablePrinter::Cell(stats.map_seconds * 1e3, 1),
                   m2td::io::TablePrinter::Cell(
                       stats.shuffle_seconds * 1e3, 1),
                   m2td::io::TablePrinter::Cell(
                       stats.reduce_seconds * 1e3, 1),
                   std::to_string(stats.intermediate_pairs)});
  };
  add_phase("1: sub-tensor decomposition", dist->phase1);
  add_phase("2: JE-stitching", dist->phase2);
  add_phase("3: core recovery (N TTM jobs)", dist->phase3);
  std::cout << "D-M2TD with " << workers << " workers (join nnz "
            << dist->join_nnz << "):\n";
  phases.Print(std::cout);

  // --- Equivalence with the local pipeline. ---
  m2td::core::M2tdOptions local_options;
  local_options.method = dist_options.method;
  local_options.ranks = dist_options.ranks;
  auto local = m2td::core::M2tdDecompose(*subs, *partition,
                                         (*model)->space().Shape(),
                                         local_options);
  M2TD_CHECK(local.ok()) << local.status();
  auto r_dist = m2td::tensor::Reconstruct(dist->tucker);
  auto r_local = m2td::tensor::Reconstruct(local->tucker);
  M2TD_CHECK(r_dist.ok() && r_local.ok());
  const double diff =
      m2td::tensor::DenseTensor::FrobeniusDistance(*r_dist, *r_local);
  std::cout << "\n||distributed - local||_F = " << diff
            << "  (should be ~0: the distributed plan computes the same "
               "decomposition)\n";
  return diff < 1e-6 ? 0 : 1;
}
