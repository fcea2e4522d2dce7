#include "sparse/pencil.hpp"

#include "perf/perf.hpp"

namespace rfic::sparse {

Pencil::Pencil(const RCSR& pattern, const std::vector<Real>& g,
               const std::vector<Real>& c)
    : pattern_(pattern), g_(g), c_(c), ordering_(effectiveOrdering()) {}

diag::SolverStatus Pencil::factor(Complex s) {
  const std::size_t nnz = pattern_.nnz();
  RFIC_REQUIRE(g_.size() == nnz && c_.size() == nnz,
               "Pencil: G and C values must match the pattern");
  vals_.resize(nnz);
  for (std::size_t p = 0; p < nnz; ++p)
    vals_[p] = Complex(g_[p] + s.real() * c_[p], s.imag() * c_[p]);

  const perf::Timer timer;
  if (!lu_.analyzed()) {
    CSymbolicLU::Options o;
    o.ordering = ordering_;
    lu_.factor(CCSR(pattern_, vals_), o);
    perf::global().addFactorization(timer.ns());
    return diag::SolverStatus::Converged;
  }
  const diag::SolverStatus st = lu_.refactor(vals_);
  if (st == diag::SolverStatus::Converged)
    perf::global().addRefactorization(timer.ns());
  else  // Repivoted: a full factorization ran under the hood
    perf::global().addFactorization(timer.ns());
  return st;
}

numeric::CVec Pencil::solve(const numeric::CVec& b) const {
  const perf::Timer timer;
  numeric::CVec x = lu_.solve(b);
  perf::global().addSolve(timer.ns());
  return x;
}

numeric::CVec Pencil::solveTransposed(const numeric::CVec& b) const {
  const perf::Timer timer;
  numeric::CVec x = lu_.solveTransposed(b);
  perf::global().addSolve(timer.ns());
  return x;
}

PencilMatrices packPencil(const RTriplets& g, const RTriplets& c) {
  RFIC_REQUIRE(g.rows() == c.rows() && g.cols() == c.cols(),
               "packPencil: G and C dimensions differ");
  // Two triplet lists over the same position set (each matrix's entries
  // plus explicit zeros at the other's) compress to one shared pattern.
  RTriplets gu(g.rows(), g.cols()), cu(c.rows(), c.cols());
  for (const auto& e : g.entries()) {
    gu.add(e.row, e.col, e.value);
    cu.add(e.row, e.col, 0.0);
  }
  for (const auto& e : c.entries()) {
    gu.add(e.row, e.col, 0.0);
    cu.add(e.row, e.col, e.value);
  }
  PencilMatrices m;
  m.pattern = RCSR(gu);
  m.g = m.pattern.values();
  m.c = RCSR(cu).values();
  return m;
}

}  // namespace rfic::sparse
