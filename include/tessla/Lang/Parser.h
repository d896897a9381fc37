//===- tessla/Lang/Parser.h - Surface syntax parser ------------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the TeSSLa-like surface syntax, producing
/// a nested-expression AST. Flattening into the Spec IR (fresh identifiers
/// for sub-expressions, as in §II "every specification can be transformed
/// into a flat one") happens in Lang/Flatten.h.
///
/// Grammar sketch:
/// \code
///   module   := { decl }
///   decl     := "in" ident ":" type | "def" ident ":=" expr | "out" ident
///   type     := "Int" | "Float" | "Bool" | "String" | "Unit"
///             | "Set" "[" type "]" | "Map" "[" type "," type "]"
///             | "Queue" "[" type "]"
///   expr     := orExpr | "if" expr "then" expr "else" expr
///   orExpr   := andExpr { "||" andExpr }
///   andExpr  := cmpExpr { "&&" cmpExpr }
///   cmpExpr  := addExpr [ ("=="|"!="|"<"|"<="|">"|">=") addExpr ]
///   addExpr  := mulExpr { ("+"|"-") mulExpr }
///   mulExpr  := unary { ("*"|"/"|"%") unary }
///   unary    := ("-"|"!") unary | primary
///   primary  := literal | "unit" | "nil" | ident [ "(" args ")" ]
///             | "time"|"last"|"delay"|"default" "(" args ")"
///             | "(" expr ")"
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_LANG_PARSER_H
#define TESSLA_LANG_PARSER_H

#include "tessla/Lang/Spec.h"
#include "tessla/Support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string_view>

namespace tessla {

/// The deepest nesting the parser accepts. Each parenthesis pair, call
/// argument list, operator application (one per operator of a chain:
/// "a + a + a" nests two deep) and type argument adds a level; deeper
/// input fails with an error naming this bound and the location. The
/// parser, the flattening and the passes after it walk expressions
/// recursively, and at 256 levels each stays far inside an 8 MiB stack,
/// also under AddressSanitizer.
constexpr unsigned MaxNestingDepth = 256;

namespace ast {

/// Kind of an AST expression node. Operators are desugared to Call nodes
/// with builtin names during parsing ("a + b" -> Call("add", [a, b])).
enum class ExprKind : uint8_t {
  Ident,   // stream reference
  Call,    // builtin or operator application (by surface name)
  TimeOp,  // time(e)
  LastOp,  // last(v, r)
  DelayOp, // delay(d, r)
  Literal, // scalar constant
  UnitVal, // 'unit'
  NilVal,  // 'nil'
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Nested surface expression.
struct Expr {
  ExprKind Kind;
  SourceLocation Loc;
  std::string Callee;         // Call: surface builtin name; Ident: name
  std::vector<ExprPtr> Args;  // Call/TimeOp/LastOp/DelayOp
  ConstantLit Lit;            // Literal
  /// Levels the expression spans as written, parentheses included (see
  /// MaxNestingDepth): 0 for a leaf.
  unsigned Depth = 0;
};

/// "in name : Type".
struct InputDecl {
  std::string Name;
  Type Ty;
  SourceLocation Loc;
};

/// "def name := expr".
struct StreamDecl {
  std::string Name;
  ExprPtr Body;
  SourceLocation Loc;
};

/// "out name".
struct OutputDecl {
  std::string Name;
  SourceLocation Loc;
};

/// A parsed module.
struct Module {
  std::vector<InputDecl> Inputs;
  std::vector<StreamDecl> Defs;
  std::vector<OutputDecl> Outputs;
};

} // namespace ast

/// Parses \p Source into an AST. Errors go to \p Diags; returns nullopt
/// if any were produced.
std::optional<ast::Module> parseModule(std::string_view Source,
                                       DiagnosticEngine &Diags);

/// Convenience front-end driver: parse, flatten/lower, validate and
/// typecheck. Returns nullopt (with diagnostics) on any failure.
std::optional<Spec> parseSpec(std::string_view Source,
                              DiagnosticEngine &Diags);

} // namespace tessla

#endif // TESSLA_LANG_PARSER_H
