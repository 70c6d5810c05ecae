//===- apps/Apps.h - The six Table 2 applications ----------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six disk-intensive array applications of Table 2, expressed as
/// affine loop-nest programs over disk-resident arrays (tile granularity;
/// see DESIGN.md). Each generator takes a linear scale factor: 1.0 yields
/// the full evaluation size (request counts in the paper's 75k-150k range);
/// tests use small scales.
///
///   AST      astrophysics — time-stepped 2D stencil, ping-pong arrays
///   FFT      out-of-core 2D FFT — row pass, transpose, row pass
///   Cholesky factorization — triangular nests, dependence-limited
///   Visuo    3D visualization — volume projection + image passes
///   SCF      quantum chemistry — symmetric (row+column) density/Fock sweeps
///   RSense   remote sensing DB — band-major calibration + cross-band math
///
//===----------------------------------------------------------------------===//

#ifndef DRA_APPS_APPS_H
#define DRA_APPS_APPS_H

#include "core/Pipeline.h"
#include "ir/Program.h"

#include <functional>
#include <string>
#include <vector>

namespace dra {

/// One application under evaluation.
struct AppUnderTest {
  std::string Name;
  std::function<Program()> Build;
};

Program makeAst(double Scale = 1.0);
Program makeFft(double Scale = 1.0);
Program makeCholesky(double Scale = 1.0);
Program makeVisuo(double Scale = 1.0);
Program makeScf(double Scale = 1.0);
Program makeRSense(double Scale = 1.0);

/// All six applications, paper order, at the given scale.
std::vector<AppUnderTest> paperApps(double Scale = 1.0);

/// The paper's default machine/compiler configuration (Table 1) for
/// \p NumProcs processors.
PipelineConfig paperConfig(unsigned NumProcs = 1);

} // namespace dra

#endif // DRA_APPS_APPS_H
