//===- Support/Diagnostics.cpp --------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Support/Diagnostics.h"

using namespace tessla;

static const char *severityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "error";
}

std::string Diagnostic::str(std::string_view File) const {
  std::string Out = severityName(Severity);
  if (Loc.isValid()) {
    Out += " ";
    if (!File.empty()) {
      Out += File;
      Out += ':';
    }
    Out += Loc.str();
  }
  Out += ": ";
  Out += Message;
  return Out;
}

std::string DiagnosticEngine::str(std::string_view File) const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str(File);
    Out += '\n';
  }
  return Out;
}
