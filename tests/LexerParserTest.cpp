//===- LexerParserTest.cpp - Frontend lexer/parser tests --------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ocelot;

namespace {

std::vector<Token> lex(const std::string &Src, DiagnosticEngine &Diags) {
  Lexer L(Src, Diags);
  return L.lexAll();
}

TEST(Lexer, BasicTokens) {
  DiagnosticEngine Diags;
  auto Toks = lex("fn main ( ) { let x = 42 ; }", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  std::vector<TokKind> Want = {
      TokKind::KwFn,   TokKind::Ident,  TokKind::LParen, TokKind::RParen,
      TokKind::LBrace, TokKind::KwLet,  TokKind::Ident,  TokKind::Assign,
      TokKind::IntLit, TokKind::Semi,   TokKind::RBrace, TokKind::Eof};
  ASSERT_EQ(Toks.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Toks[I].Kind, Want[I]) << "token " << I;
}

TEST(Lexer, CompoundOperators) {
  DiagnosticEngine Diags;
  auto Toks = lex("&& || == != <= >= << >> -> .. += -= *=", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  std::vector<TokKind> Want = {
      TokKind::AmpAmp,      TokKind::PipePipe,    TokKind::EqEq,
      TokKind::NotEq,       TokKind::Le,          TokKind::Ge,
      TokKind::Shl,         TokKind::Shr,         TokKind::Arrow,
      TokKind::DotDot,      TokKind::PlusAssign,  TokKind::MinusAssign,
      TokKind::StarAssign,  TokKind::Eof};
  ASSERT_EQ(Toks.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Toks[I].Kind, Want[I]) << "token " << I;
}

TEST(Lexer, NumbersAndSeparators) {
  DiagnosticEngine Diags;
  auto Toks = lex("0 123 1_000 0x1F", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 123);
  EXPECT_EQ(Toks[2].IntValue, 1000);
  EXPECT_EQ(Toks[3].IntValue, 0x1F);
}

TEST(Lexer, LargestIntLiteralsAccepted) {
  DiagnosticEngine Diags;
  auto Toks = lex("9223372036854775807 0x7fff_ffff_ffff_ffff", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(Toks[0].IntValue, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Toks[1].IntValue, std::numeric_limits<int64_t>::max());
}

TEST(Lexer, DecimalLiteralAboveInt64MaxRejected) {
  DiagnosticEngine Diags;
  lex("let x =\n  99999999999999999999999;", Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  const Diagnostic &D = Diags.diagnostics()[0];
  EXPECT_EQ(D.Kind, DiagKind::Error);
  EXPECT_EQ(D.Loc.Line, 2u);
  EXPECT_EQ(D.Loc.Col, 3u);
  EXPECT_NE(D.Message.find("99999999999999999999999 is larger than the "
                           "largest int"),
            std::string::npos)
      << D.Message;

  DiagnosticEngine OneOver;
  lex("9223372036854775808", OneOver);
  EXPECT_TRUE(OneOver.contains("larger than the largest int"));
}

TEST(Lexer, HexLiteralAboveInt64MaxRejected) {
  DiagnosticEngine Diags;
  lex("x = 0x8000_0000_0000_0000;", Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  const Diagnostic &D = Diags.diagnostics()[0];
  EXPECT_EQ(D.Loc.Line, 1u);
  EXPECT_EQ(D.Loc.Col, 5u);
  EXPECT_NE(D.Message.find("0x8000_0000_0000_0000 is larger than the "
                           "largest int"),
            std::string::npos)
      << D.Message;
}

TEST(Lexer, CommentsSkipped) {
  DiagnosticEngine Diags;
  auto Toks = lex("// line comment\n1 /* block\ncomment */ 2", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].IntValue, 1);
  EXPECT_EQ(Toks[1].IntValue, 2);
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine Diags;
  lex("1 /* never closed", Diags);
  EXPECT_TRUE(Diags.contains("unterminated block comment"));
}

TEST(Lexer, AnnotationKeywordsAreCaseSensitive) {
  DiagnosticEngine Diags;
  auto Toks = lex("Fresh Consistent FreshConsistent fresh consistent", Diags);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwFreshAnnot);
  EXPECT_EQ(Toks[1].Kind, TokKind::KwConsistentAnnot);
  EXPECT_EQ(Toks[2].Kind, TokKind::KwFreshConsistentAnnot);
  EXPECT_EQ(Toks[3].Kind, TokKind::KwFresh);
  EXPECT_EQ(Toks[4].Kind, TokKind::KwConsistent);
}

TEST(Lexer, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  auto Toks = lex("a\n  b", Diags);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

TEST(Lexer, UnknownCharacterReported) {
  DiagnosticEngine Diags;
  lex("let $x = 1;", Diags);
  EXPECT_TRUE(Diags.contains("unexpected character"));
}

// -- Parser -------------------------------------------------------------------

std::unique_ptr<Module> parse(const std::string &Src,
                              DiagnosticEngine &Diags) {
  return Parser::parseSource(Src, Diags);
}

TEST(Parser, IoAndStaticDecls) {
  DiagnosticEngine Diags;
  auto M = parse("io a, b, c;\n"
                 "static x = 5;\n"
                 "static buf: [int; 8];\n"
                 "static neg = -3;\n"
                 "fn main() { }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(M->Ios.size(), 1u);
  EXPECT_EQ(M->Ios[0].Names.size(), 3u);
  ASSERT_EQ(M->Statics.size(), 3u);
  EXPECT_EQ(M->Statics[0].InitValue, 5);
  EXPECT_TRUE(M->Statics[1].IsArray);
  EXPECT_EQ(M->Statics[1].ArraySize, 8);
  EXPECT_EQ(M->Statics[2].InitValue, -3);
}

TEST(Parser, FunctionSignatures) {
  DiagnosticEngine Diags;
  auto M = parse("fn f(a: int, b: bool, r: &int) -> int { return a; }\n"
                 "fn main() { }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(M->Functions.size(), 2u);
  const FnDecl &F = M->Functions[0];
  ASSERT_EQ(F.Params.size(), 3u);
  EXPECT_EQ(F.Params[0].Ty, Type::Int);
  EXPECT_EQ(F.Params[1].Ty, Type::Bool);
  EXPECT_EQ(F.Params[2].Ty, Type::Ref);
  EXPECT_EQ(F.RetTy, Type::Int);
}

TEST(Parser, LetVariants) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() {\n"
                 "  let a = 1;\n"
                 "  let mut b = 2;\n"
                 "  let fresh c = 3;\n"
                 "  let consistent(4) d = 5;\n"
                 "  let arr = [0; 16];\n"
                 "}",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Body = M->Functions[0].Body;
  ASSERT_EQ(Body.size(), 5u);
  EXPECT_FALSE(Body[0]->IsFresh);
  EXPECT_TRUE(Body[2]->IsFresh);
  EXPECT_TRUE(Body[3]->IsConsistent);
  EXPECT_EQ(Body[3]->ConsistentSet, 4);
  EXPECT_TRUE(Body[4]->IsArray);
  EXPECT_EQ(Body[4]->ArraySize, 16);
}

TEST(Parser, AnnotationStatements) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() {\n"
                 "  let x = 1;\n"
                 "  Fresh(x);\n"
                 "  Consistent(x, 2);\n"
                 "  FreshConsistent(x, 3);\n"
                 "  FreshConsistent(&x, 4);\n"
                 "}",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Body = M->Functions[0].Body;
  ASSERT_EQ(Body.size(), 5u);
  EXPECT_TRUE(Body[1]->AnnotFresh);
  EXPECT_FALSE(Body[1]->AnnotConsistent);
  EXPECT_TRUE(Body[2]->AnnotConsistent);
  EXPECT_EQ(Body[2]->AnnotSet, 2);
  EXPECT_TRUE(Body[3]->AnnotFresh);
  EXPECT_TRUE(Body[3]->AnnotConsistent);
  EXPECT_EQ(Body[4]->AnnotSet, 4); // '&' form from Fig. 9 accepted.
}

TEST(Parser, OperatorPrecedence) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { let x = 1 + 2 * 3; }", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  const Expr &E = *M->Functions[0].Body[0]->Init;
  ASSERT_EQ(E.Kind, ExprKind::Binary);
  EXPECT_EQ(E.BinKind, BinOp::Add);
  EXPECT_EQ(E.Children[1]->BinKind, BinOp::Mul);
}

TEST(Parser, ComparisonBindsLooserThanBitOr) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { let b = 1 | 2 > 2; }", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  const Expr &E = *M->Functions[0].Body[0]->Init;
  EXPECT_EQ(E.BinKind, BinOp::Gt);
}

TEST(Parser, RefArgumentVsBitAnd) {
  DiagnosticEngine Diags;
  auto M = parse("fn f(r: &int) { }\n"
                 "static g = 0;\n"
                 "fn main() { f(&g); let x = 1 & 2; }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Call = M->Functions[1].Body[0]->Value2;
  ASSERT_EQ(Call->Kind, ExprKind::Call);
  EXPECT_EQ(Call->Children[0]->Kind, ExprKind::AddrOf);
  const Expr &And = *M->Functions[1].Body[1]->Init;
  EXPECT_EQ(And.BinKind, BinOp::And);
}

TEST(Parser, CompoundAssignDesugars) {
  DiagnosticEngine Diags;
  auto M = parse("static a: [int; 4];\n"
                 "fn main() { let x = 0; x += 2; a[1] -= 3; }", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Body = M->Functions[0].Body;
  EXPECT_EQ(Body[1]->Value->BinKind, BinOp::Add);
  EXPECT_EQ(Body[2]->Target, AssignTarget::Index);
  EXPECT_EQ(Body[2]->Value->BinKind, BinOp::Sub);
}

TEST(Parser, ForLoopAndControl) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { for i in 0..4 { if i > 2 { break; } "
                 "continue; } }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const Stmt &For = *M->Functions[0].Body[0];
  EXPECT_EQ(For.Kind, StmtKind::For);
  EXPECT_EQ(For.LoopLo, 0);
  EXPECT_EQ(For.LoopHi, 4);
}

TEST(Parser, ElseIfChains) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { let x = 1; if x > 2 { } else if x > 1 { } "
                 "else { } }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const Stmt &If = *M->Functions[0].Body[1];
  ASSERT_EQ(If.Else.size(), 1u);
  EXPECT_EQ(If.Else[0]->Kind, StmtKind::If);
}

TEST(Parser, OutputBuiltins) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { log(1, 2); alarm(); send(3); uart(4); }",
                 Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Body = M->Functions[0].Body;
  EXPECT_EQ(Body[0]->OutKind, OutputKind::Log);
  EXPECT_EQ(Body[0]->OutArgs.size(), 2u);
  EXPECT_EQ(Body[1]->OutKind, OutputKind::Alarm);
  EXPECT_EQ(Body[2]->OutKind, OutputKind::Send);
  EXPECT_EQ(Body[3]->OutKind, OutputKind::Uart);
}

TEST(Parser, DerefAssignment) {
  DiagnosticEngine Diags;
  auto M = parse("fn f(r: &int) { *r = 7; *r += 1; }\nfn main() { }", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  const auto &Body = M->Functions[0].Body;
  EXPECT_EQ(Body[0]->Target, AssignTarget::Deref);
  EXPECT_EQ(Body[1]->Value->BinKind, BinOp::Add);
}

TEST(Parser, AtomicBlock) {
  DiagnosticEngine Diags;
  auto M = parse("fn main() { atomic { log(1); } }", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(M->Functions[0].Body[0]->Kind, StmtKind::Atomic);
}

TEST(Parser, ErrorsReportedAndRecovered) {
  DiagnosticEngine Diags;
  parse("fn main() { let = 5; log(1); }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, MissingSemicolonReported) {
  DiagnosticEngine Diags;
  parse("fn main() { let x = 5 }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
