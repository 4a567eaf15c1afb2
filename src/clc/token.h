// Token definitions for the clc OpenCL-C front end.
#pragma once

#include <cstdint>
#include <string>

#include "clc/diag.h"

namespace clc {

enum class TokKind : std::uint8_t {
  Eof,
  Identifier,
  IntLiteral,
  FloatLiteral,
  CharLiteral,

  // Keywords: types.
  KwVoid, KwBool, KwChar, KwUChar, KwShort, KwUShort, KwInt, KwUInt,
  KwLong, KwULong, KwFloat, KwDouble, KwUnsigned, KwSigned, KwSizeT,

  // Keywords: declarations and qualifiers.
  KwStruct, KwTypedef, KwConst, KwVolatile, KwStatic, KwInline,
  KwKernel,      // __kernel / kernel
  KwGlobal,      // __global / global
  KwLocal,       // __local / local / __shared__ (CUDA dialect)
  KwPrivate,     // __private / private
  KwConstantAS,  // __constant / constant
  KwDevice,      // __device__ (CUDA dialect, ignored qualifier)

  // Keywords: statements.
  KwIf, KwElse, KwFor, KwWhile, KwDo, KwReturn, KwBreak, KwContinue,
  KwSwitch, KwCase, KwDefault, KwGoto,

  // Keywords: expressions.
  KwSizeof, KwTrue, KwFalse,

  // Punctuation and operators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Semicolon, Comma, Dot, Arrow, Question, Colon,
  Plus, Minus, Star, Slash, Percent,
  PlusPlus, MinusMinus,
  Eq, PlusEq, MinusEq, StarEq, SlashEq, PercentEq,
  AmpEq, PipeEq, CaretEq, ShlEq, ShrEq,
  EqEq, NotEq, Less, Greater, LessEq, GreaterEq,
  AmpAmp, PipePipe, Not,
  Amp, Pipe, Caret, Tilde, Shl, Shr,
  Hash, // only survives lexing inside preprocessor handling
};

const char* tokKindName(TokKind kind) noexcept;

struct Token {
  TokKind kind = TokKind::Eof;
  std::string text;        // lexeme (identifier spelling, literal text)
  std::uint64_t intValue = 0;
  double floatValue = 0.0;
  bool unsignedSuffix = false; // integer literal had a 'u' suffix
  bool longSuffix = false;     // integer literal had an 'l' suffix
  bool floatSuffix = false;    // floating literal had an 'f' suffix
  SourceLoc loc;               // logical: line continuations keep the line
  std::size_t offset = 0;      // byte offset into lex()'s input
  bool atLineStart = false;    // first token on its line (for directives)

  bool is(TokKind k) const noexcept { return kind == k; }
};

} // namespace clc
