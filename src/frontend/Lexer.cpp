//===- Lexer.cpp - OCL lexer -----------------------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <limits>
#include <map>

using namespace ocelot;

const char *ocelot::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of file";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::KwFn:
    return "'fn'";
  case TokKind::KwLet:
    return "'let'";
  case TokKind::KwFresh:
    return "'fresh'";
  case TokKind::KwConsistent:
    return "'consistent'";
  case TokKind::KwFreshAnnot:
    return "'Fresh'";
  case TokKind::KwConsistentAnnot:
    return "'Consistent'";
  case TokKind::KwFreshConsistentAnnot:
    return "'FreshConsistent'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwIn:
    return "'in'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwAtomic:
    return "'atomic'";
  case TokKind::KwIo:
    return "'io'";
  case TokKind::KwStatic:
    return "'static'";
  case TokKind::KwTrue:
    return "'true'";
  case TokKind::KwFalse:
    return "'false'";
  case TokKind::KwLog:
    return "'log'";
  case TokKind::KwAlarm:
    return "'alarm'";
  case TokKind::KwSend:
    return "'send'";
  case TokKind::KwUart:
    return "'uart'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Semi:
    return "';'";
  case TokKind::Comma:
    return "','";
  case TokKind::Colon:
    return "':'";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::DotDot:
    return "'..'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::Tilde:
    return "'~'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Assign:
    return "'='";
  case TokKind::PlusAssign:
    return "'+='";
  case TokKind::MinusAssign:
    return "'-='";
  case TokKind::StarAssign:
    return "'*='";
  }
  return "?";
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Src(std::move(Source)), Diags(Diags) {}

char Lexer::peek(int Ahead) const {
  size_t P = Pos + static_cast<size_t>(Ahead);
  return P < Src.size() ? Src[P] : '\0';
}

char Lexer::advance() {
  char C = Src[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  for (;;) {
    if (atEnd())
      return;
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = loc();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokKind K, SourceLoc Loc) const {
  Token T;
  T.Kind = K;
  T.Loc = Loc;
  return T;
}

static const std::map<std::string, TokKind> &keywordMap() {
  static const std::map<std::string, TokKind> Map = {
      {"fn", TokKind::KwFn},
      {"let", TokKind::KwLet},
      {"fresh", TokKind::KwFresh},
      {"consistent", TokKind::KwConsistent},
      {"Fresh", TokKind::KwFreshAnnot},
      {"Consistent", TokKind::KwConsistentAnnot},
      {"FreshConsistent", TokKind::KwFreshConsistentAnnot},
      {"if", TokKind::KwIf},
      {"else", TokKind::KwElse},
      {"for", TokKind::KwFor},
      {"in", TokKind::KwIn},
      {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue},
      {"return", TokKind::KwReturn},
      {"atomic", TokKind::KwAtomic},
      {"io", TokKind::KwIo},
      {"static", TokKind::KwStatic},
      {"true", TokKind::KwTrue},
      {"false", TokKind::KwFalse},
      {"log", TokKind::KwLog},
      {"alarm", TokKind::KwAlarm},
      {"send", TokKind::KwSend},
      {"uart", TokKind::KwUart},
  };
  return Map;
}

Token Lexer::lexToken() {
  skipTrivia();
  SourceLoc L = loc();
  if (atEnd())
    return makeToken(TokKind::Eof, L);

  char C = advance();

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text(1, C);
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Text += advance();
    auto It = keywordMap().find(Text);
    Token T = makeToken(It == keywordMap().end() ? TokKind::Ident : It->second,
                        L);
    T.Text = Text;
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    size_t Start = Pos - 1;
    int64_t V = C - '0';
    bool Hex = false;
    bool TooLarge = false;
    if (C == '0' && (peek() == 'x' || peek() == 'X')) {
      advance();
      Hex = true;
      V = 0;
    }
    // Appends one digit unless the literal would exceed INT64_MAX.
    auto Append = [&](int Base, int Digit) {
      if (V > (std::numeric_limits<int64_t>::max() - Digit) / Base)
        TooLarge = true;
      else
        V = V * Base + Digit;
    };
    while (!atEnd()) {
      char D = peek();
      if (Hex && std::isxdigit(static_cast<unsigned char>(D))) {
        advance();
        Append(16, std::isdigit(static_cast<unsigned char>(D))
                       ? D - '0'
                       : std::tolower(D) - 'a' + 10);
      } else if (!Hex && std::isdigit(static_cast<unsigned char>(D))) {
        advance();
        Append(10, D - '0');
      } else if (D == '_') {
        advance(); // digit separator
      } else {
        break;
      }
    }
    if (TooLarge)
      Diags.error(L, "integer literal " + Src.substr(Start, Pos - Start) +
                         " is larger than the largest int "
                         "(9223372036854775807)");
    Token T = makeToken(TokKind::IntLit, L);
    T.IntValue = V;
    return T;
  }

  auto Two = [&](char Next, TokKind IfTwo, TokKind IfOne) {
    if (peek() == Next) {
      advance();
      return makeToken(IfTwo, L);
    }
    return makeToken(IfOne, L);
  };

  switch (C) {
  case '(':
    return makeToken(TokKind::LParen, L);
  case ')':
    return makeToken(TokKind::RParen, L);
  case '{':
    return makeToken(TokKind::LBrace, L);
  case '}':
    return makeToken(TokKind::RBrace, L);
  case '[':
    return makeToken(TokKind::LBracket, L);
  case ']':
    return makeToken(TokKind::RBracket, L);
  case ';':
    return makeToken(TokKind::Semi, L);
  case ',':
    return makeToken(TokKind::Comma, L);
  case ':':
    return makeToken(TokKind::Colon, L);
  case '^':
    return makeToken(TokKind::Caret, L);
  case '~':
    return makeToken(TokKind::Tilde, L);
  case '%':
    return makeToken(TokKind::Percent, L);
  case '.':
    if (peek() == '.') {
      advance();
      return makeToken(TokKind::DotDot, L);
    }
    Diags.error(L, "unexpected character '.'");
    return lexToken();
  case '&':
    return Two('&', TokKind::AmpAmp, TokKind::Amp);
  case '|':
    return Two('|', TokKind::PipePipe, TokKind::Pipe);
  case '!':
    return Two('=', TokKind::NotEq, TokKind::Bang);
  case '+':
    return Two('=', TokKind::PlusAssign, TokKind::Plus);
  case '-':
    if (peek() == '>') {
      advance();
      return makeToken(TokKind::Arrow, L);
    }
    return Two('=', TokKind::MinusAssign, TokKind::Minus);
  case '*':
    return Two('=', TokKind::StarAssign, TokKind::Star);
  case '/':
    return makeToken(TokKind::Slash, L);
  case '<':
    if (peek() == '<') {
      advance();
      return makeToken(TokKind::Shl, L);
    }
    return Two('=', TokKind::Le, TokKind::Lt);
  case '>':
    if (peek() == '>') {
      advance();
      return makeToken(TokKind::Shr, L);
    }
    return Two('=', TokKind::Ge, TokKind::Gt);
  case '=':
    return Two('=', TokKind::EqEq, TokKind::Assign);
  default:
    Diags.error(L, std::string("unexpected character '") + C + "'");
    return lexToken();
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Toks;
  for (;;) {
    Token T = lexToken();
    bool IsEof = T.Kind == TokKind::Eof;
    Toks.push_back(std::move(T));
    if (IsEof)
      return Toks;
  }
}
