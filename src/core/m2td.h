#ifndef M2TD_CORE_M2TD_H_
#define M2TD_CORE_M2TD_H_

#include <cstdint>
#include <vector>

#include "core/je_stitch.h"
#include "core/pf_partition.h"
#include "linalg/matrix.h"
#include "linalg/rsvd.h"
#include "tensor/tucker.h"
#include "util/result.h"

namespace m2td::core {

/// The three pivot-factor combination schemes of Section VI.
enum class M2tdMethod {
  /// Elementwise average of the two pivot factor matrices (Algorithm 2).
  kAvg,
  /// Left singular vectors of the row-wise concatenated pivot
  /// matricizations [X1_(n) | X2_(n)] (Algorithm 3) — via the Gram identity
  /// [A|B][A|B]^T = A A^T + B B^T.
  kConcat,
  /// Per-row energy selection between the two factor matrices
  /// (Algorithms 4 and 5) — the paper's best performer.
  kSelect,
  /// Extension (not in the paper): soft variant of kSelect that blends
  /// each row pair weighted by the row energies instead of hard-picking
  /// the stronger one. Degenerates to kAvg for equal energies and to
  /// kSelect when one side dominates; the ablation bench quantifies where
  /// it lands between them.
  kWeighted,
};

const char* M2tdMethodName(M2tdMethod method);

struct M2tdOptions {
  M2tdMethod method = M2tdMethod::kSelect;
  /// Target rank per *original* mode; clamped to the mode lengths. A single
  /// value replicated across modes reproduces the paper's "Rank" column.
  std::vector<std::uint64_t> ranks;
  StitchOptions stitch;
  /// Factor-initialization policy for every sub-tensor Gram solve (pivot,
  /// side, and concat-sum factors). Defaults to the deterministic
  /// Gram + Jacobi oracle; the randomized method sketches each solve with
  /// a seed decorrelated per original mode (linalg::GramFactorOptions).
  linalg::GramFactorOptions init;
};

/// Where the time went; mirrors the phase split reported in Table III
/// (sub-tensor decomposition / stitching / core recovery). Each field is
/// the elapsed time of the identically named tracing span
/// ("sub_decompose" / "stitch" / "core_recovery", see src/obs/), so a
/// trace captured with obs::SetTracingEnabled(true) always agrees with
/// these numbers.
struct M2tdTimings {
  double sub_decompose_seconds = 0.0;
  double stitch_seconds = 0.0;
  double core_seconds = 0.0;

  double TotalSeconds() const {
    return sub_decompose_seconds + stitch_seconds + core_seconds;
  }
};

struct M2tdResult {
  /// Tucker decomposition of the join tensor, factors in original mode
  /// order — directly comparable against the full-space ground truth.
  tensor::TuckerDecomposition tucker;
  /// Non-zeros of the stitched join tensor (its effective density
  /// numerator).
  std::uint64_t join_nnz = 0;
  M2tdTimings timings;
};

/// \brief Algorithm 5 (ROW_SELECT): builds a combined factor matrix taking
/// each row from whichever input has the larger row 2-norm ("energy").
///
/// Inputs must have identical shape.
Result<linalg::Matrix> RowSelect(const linalg::Matrix& u1,
                                 const linalg::Matrix& u2);

/// \brief Energy-weighted row blend (the kWeighted extension): row i of
/// the output is (||r1|| r1 + ||r2|| r2) / (||r1|| + ||r2||); rows with
/// zero total energy come out zero. Inputs must have identical shape.
Result<linalg::Matrix> RowWeightedBlend(const linalg::Matrix& u1,
                                        const linalg::Matrix& u2);

/// \brief The argument checks every M2TD pipeline shares: `partition`
/// covers the modes of `full_shape`, `ranks` holds one rank of at least 1
/// per original mode, and the sub-tensors are coalesced, each with the
/// pivot extents, then its side's. InvalidArgument otherwise.
Status ValidateM2tdArgs(const SubEnsembles& subs,
                        const PfPartition& partition,
                        const std::vector<std::uint64_t>& full_shape,
                        const std::vector<std::uint64_t>& ranks);

/// \brief The factor of one pivot mode from the two sub-tensors' Grams
/// along it, combined per `method`, at `rank` clamped to the mode length.
///
/// kConcat solves the summed Gram (that of [X1_(n) | X2_(n)]) under
/// `init1`. The other methods solve `gram1` under `init1` and `gram2` under
/// `init2`, then combine the two factors row by row: kAvg averages them,
/// kSelect applies RowSelect and kWeighted RowWeightedBlend. In-memory
/// M2TD and both D-M2TD backends build every pivot factor here.
/// InvalidArgument when the Grams differ in shape.
Result<linalg::Matrix> CombinePivotFactor(
    M2tdMethod method, const linalg::Matrix& gram1,
    const linalg::Matrix& gram2, std::uint64_t rank,
    const linalg::GramFactorOptions& init1,
    const linalg::GramFactorOptions& init2);

/// \brief Multi-Task Tensor Decomposition: the Tucker decomposition of the
/// join tensor obtained from the two sub-ensemble decompositions
/// (Algorithms 2-4).
///
/// Factor matrices for pivot modes combine the two sub-tensor factors per
/// `options.method`; non-pivot factors come from the owning sub-tensor.
/// The join tensor is stitched (per `options.stitch`) only to recover the
/// core — the N-modal tensor is never decomposed directly.
Result<M2tdResult> M2tdDecompose(const SubEnsembles& subs,
                                 const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const M2tdOptions& options);

}  // namespace m2td::core

#endif  // M2TD_CORE_M2TD_H_
