//===- tessla/Support/Diagnostics.h - Diagnostic engine --------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostics collected while parsing, type checking or analyzing a
/// specification. The library never throws; fallible phases report through a
/// DiagnosticEngine and return empty/unchanged results on hard errors.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_SUPPORT_DIAGNOSTICS_H
#define TESSLA_SUPPORT_DIAGNOSTICS_H

#include "tessla/Support/SourceLocation.h"

#include <string>
#include <string_view>
#include <vector>

namespace tessla {

/// Severity of a single diagnostic.
enum class DiagSeverity { Note, Warning, Error };

/// One reported problem, optionally anchored to a source position.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLocation Loc;
  std::string Message;

  /// Renders "error 3:7: message" style text; with \p File, the path of
  /// the file the diagnostic is about goes in front of a known location
  /// ("error spec.tessla:3:7: message").
  std::string str(std::string_view File = {}) const;
};

/// Accumulates diagnostics for one front-end or analysis run.
///
/// The engine is deliberately simple: phases append, callers inspect. Errors
/// are sticky — hasErrors() stays true until clear().
class DiagnosticEngine {
public:
  void error(SourceLocation Loc, std::string Message) {
    Diags.push_back({DiagSeverity::Error, Loc, std::move(Message)});
    ++NumErrors;
  }
  void error(std::string Message) { error(SourceLocation(), std::move(Message)); }

  void warning(SourceLocation Loc, std::string Message) {
    Diags.push_back({DiagSeverity::Warning, Loc, std::move(Message)});
  }
  void warning(std::string Message) {
    warning(SourceLocation(), std::move(Message));
  }

  void note(SourceLocation Loc, std::string Message) {
    Diags.push_back({DiagSeverity::Note, Loc, std::move(Message)});
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

  /// All diagnostics rendered one per line; handy for test assertions and
  /// tool error output. Tools pass the path of the file they read as
  /// \p File (see Diagnostic::str).
  std::string str(std::string_view File = {}) const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace tessla

#endif // TESSLA_SUPPORT_DIAGNOSTICS_H
