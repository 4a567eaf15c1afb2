#include "clc/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

namespace clc {

const char* tokKindName(TokKind kind) noexcept {
  switch (kind) {
    case TokKind::Eof: return "end of input";
    case TokKind::Identifier: return "identifier";
    case TokKind::IntLiteral: return "integer literal";
    case TokKind::FloatLiteral: return "floating literal";
    case TokKind::CharLiteral: return "character literal";
    case TokKind::KwVoid: return "'void'";
    case TokKind::KwBool: return "'bool'";
    case TokKind::KwChar: return "'char'";
    case TokKind::KwUChar: return "'uchar'";
    case TokKind::KwShort: return "'short'";
    case TokKind::KwUShort: return "'ushort'";
    case TokKind::KwInt: return "'int'";
    case TokKind::KwUInt: return "'uint'";
    case TokKind::KwLong: return "'long'";
    case TokKind::KwULong: return "'ulong'";
    case TokKind::KwFloat: return "'float'";
    case TokKind::KwDouble: return "'double'";
    case TokKind::KwUnsigned: return "'unsigned'";
    case TokKind::KwSigned: return "'signed'";
    case TokKind::KwSizeT: return "'size_t'";
    case TokKind::KwStruct: return "'struct'";
    case TokKind::KwTypedef: return "'typedef'";
    case TokKind::KwConst: return "'const'";
    case TokKind::KwVolatile: return "'volatile'";
    case TokKind::KwStatic: return "'static'";
    case TokKind::KwInline: return "'inline'";
    case TokKind::KwKernel: return "'__kernel'";
    case TokKind::KwGlobal: return "'__global'";
    case TokKind::KwLocal: return "'__local'";
    case TokKind::KwPrivate: return "'__private'";
    case TokKind::KwConstantAS: return "'__constant'";
    case TokKind::KwDevice: return "'__device__'";
    case TokKind::KwIf: return "'if'";
    case TokKind::KwElse: return "'else'";
    case TokKind::KwFor: return "'for'";
    case TokKind::KwWhile: return "'while'";
    case TokKind::KwDo: return "'do'";
    case TokKind::KwReturn: return "'return'";
    case TokKind::KwBreak: return "'break'";
    case TokKind::KwContinue: return "'continue'";
    case TokKind::KwSwitch: return "'switch'";
    case TokKind::KwCase: return "'case'";
    case TokKind::KwDefault: return "'default'";
    case TokKind::KwGoto: return "'goto'";
    case TokKind::KwSizeof: return "'sizeof'";
    case TokKind::KwTrue: return "'true'";
    case TokKind::KwFalse: return "'false'";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::LBracket: return "'['";
    case TokKind::RBracket: return "']'";
    case TokKind::Semicolon: return "';'";
    case TokKind::Comma: return "','";
    case TokKind::Dot: return "'.'";
    case TokKind::Arrow: return "'->'";
    case TokKind::Question: return "'?'";
    case TokKind::Colon: return "':'";
    case TokKind::Plus: return "'+'";
    case TokKind::Minus: return "'-'";
    case TokKind::Star: return "'*'";
    case TokKind::Slash: return "'/'";
    case TokKind::Percent: return "'%'";
    case TokKind::PlusPlus: return "'++'";
    case TokKind::MinusMinus: return "'--'";
    case TokKind::Eq: return "'='";
    case TokKind::PlusEq: return "'+='";
    case TokKind::MinusEq: return "'-='";
    case TokKind::StarEq: return "'*='";
    case TokKind::SlashEq: return "'/='";
    case TokKind::PercentEq: return "'%='";
    case TokKind::AmpEq: return "'&='";
    case TokKind::PipeEq: return "'|='";
    case TokKind::CaretEq: return "'^='";
    case TokKind::ShlEq: return "'<<='";
    case TokKind::ShrEq: return "'>>='";
    case TokKind::EqEq: return "'=='";
    case TokKind::NotEq: return "'!='";
    case TokKind::Less: return "'<'";
    case TokKind::Greater: return "'>'";
    case TokKind::LessEq: return "'<='";
    case TokKind::GreaterEq: return "'>='";
    case TokKind::AmpAmp: return "'&&'";
    case TokKind::PipePipe: return "'||'";
    case TokKind::Not: return "'!'";
    case TokKind::Amp: return "'&'";
    case TokKind::Pipe: return "'|'";
    case TokKind::Caret: return "'^'";
    case TokKind::Tilde: return "'~'";
    case TokKind::Shl: return "'<<'";
    case TokKind::Shr: return "'>>'";
    case TokKind::Hash: return "'#'";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string, TokKind>& keywordTable() {
  static const std::unordered_map<std::string, TokKind> table = {
      {"void", TokKind::KwVoid},
      {"bool", TokKind::KwBool},
      {"char", TokKind::KwChar},
      {"uchar", TokKind::KwUChar},
      {"short", TokKind::KwShort},
      {"ushort", TokKind::KwUShort},
      {"int", TokKind::KwInt},
      {"uint", TokKind::KwUInt},
      {"long", TokKind::KwLong},
      {"ulong", TokKind::KwULong},
      {"float", TokKind::KwFloat},
      {"double", TokKind::KwDouble},
      {"unsigned", TokKind::KwUnsigned},
      {"signed", TokKind::KwSigned},
      {"size_t", TokKind::KwSizeT},
      {"struct", TokKind::KwStruct},
      {"typedef", TokKind::KwTypedef},
      {"const", TokKind::KwConst},
      {"volatile", TokKind::KwVolatile},
      {"static", TokKind::KwStatic},
      {"inline", TokKind::KwInline},
      {"__kernel", TokKind::KwKernel},
      {"kernel", TokKind::KwKernel},
      {"__global", TokKind::KwGlobal},
      {"global", TokKind::KwGlobal},
      {"__local", TokKind::KwLocal},
      {"local", TokKind::KwLocal},
      {"__shared__", TokKind::KwLocal}, // CUDA dialect
      {"__private", TokKind::KwPrivate},
      {"__constant", TokKind::KwConstantAS},
      {"constant", TokKind::KwConstantAS},
      {"__device__", TokKind::KwDevice}, // CUDA dialect
      {"__global__", TokKind::KwKernel}, // CUDA dialect
      {"if", TokKind::KwIf},
      {"else", TokKind::KwElse},
      {"for", TokKind::KwFor},
      {"while", TokKind::KwWhile},
      {"do", TokKind::KwDo},
      {"return", TokKind::KwReturn},
      {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue},
      {"switch", TokKind::KwSwitch},
      {"case", TokKind::KwCase},
      {"default", TokKind::KwDefault},
      {"goto", TokKind::KwGoto},
      {"sizeof", TokKind::KwSizeof},
      {"true", TokKind::KwTrue},
      {"false", TokKind::KwFalse},
  };
  return table;
}

class Lexer {
public:
  explicit Lexer(const std::string& source) : src_(source) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    bool lineStart = true;
    for (;;) {
      skipWhitespaceAndComments(lineStart);
      const std::size_t offset = pos_;
      Token tok = next();
      tok.offset = offset;
      tok.atLineStart = lineStart;
      lineStart = false;
      const bool eof = tok.kind == TokKind::Eof;
      tokens.push_back(std::move(tok));
      if (eof) {
        return tokens;
      }
    }
  }

private:
  char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() noexcept {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  SourceLoc here() const noexcept { return SourceLoc{line_, col_}; }

  [[noreturn]] void fail(const std::string& message) const {
    throw CompileError(message, here());
  }

  void skipWhitespaceAndComments(bool& lineStart) {
    for (;;) {
      const char c = peek();
      if (c == '\n') {
        lineStart = true;
        advance();
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
                 c == '\f') {
        advance();
      } else if (c == '\\' && peek(1) == '\n') {
        // Line continuation: consume the pair without advancing the
        // *logical* line, so multi-line #define bodies stay on one line.
        pos_ += 2;
        col_ = 1;
      } else if (c == '/' && peek(1) == '/') {
        while (peek() != '\n' && peek() != '\0') {
          advance();
        }
      } else if (c == '/' && peek(1) == '*') {
        const SourceLoc start = here();
        advance();
        advance();
        for (;;) {
          if (peek() == '\0') {
            throw CompileError("unterminated block comment", start);
          }
          if (peek() == '*' && peek(1) == '/') {
            advance();
            advance();
            break;
          }
          advance();
        }
      } else {
        return;
      }
    }
  }

  Token makeTok(TokKind kind, SourceLoc loc, std::string text = {}) {
    Token tok;
    tok.kind = kind;
    tok.loc = loc;
    tok.text = std::move(text);
    return tok;
  }

  Token next() {
    const SourceLoc loc = here();
    const char c = peek();
    if (c == '\0') {
      return makeTok(TokKind::Eof, loc);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return identifierOrKeyword(loc);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      return number(loc);
    }
    if (c == '\'') {
      return charLiteral(loc);
    }
    return punctuation(loc);
  }

  Token identifierOrKeyword(SourceLoc loc) {
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(peek())) ||
           peek() == '_') {
      text.push_back(advance());
    }
    const auto& table = keywordTable();
    if (const auto it = table.find(text); it != table.end()) {
      return makeTok(it->second, loc, std::move(text));
    }
    return makeTok(TokKind::Identifier, loc, std::move(text));
  }

  Token number(SourceLoc loc) {
    std::string text;
    bool isFloat = false;
    bool isHex = false;

    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      isHex = true;
      text.push_back(advance());
      text.push_back(advance());
      while (std::isxdigit(static_cast<unsigned char>(peek()))) {
        text.push_back(advance());
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        text.push_back(advance());
      }
      if (peek() == '.') {
        isFloat = true;
        text.push_back(advance());
        while (std::isdigit(static_cast<unsigned char>(peek()))) {
          text.push_back(advance());
        }
      }
      if (peek() == 'e' || peek() == 'E') {
        const char sign = peek(1);
        if (std::isdigit(static_cast<unsigned char>(sign)) ||
            ((sign == '+' || sign == '-') &&
             std::isdigit(static_cast<unsigned char>(peek(2))))) {
          isFloat = true;
          text.push_back(advance()); // e
          if (peek() == '+' || peek() == '-') {
            text.push_back(advance());
          }
          while (std::isdigit(static_cast<unsigned char>(peek()))) {
            text.push_back(advance());
          }
        }
      }
    }

    Token tok = makeTok(isFloat ? TokKind::FloatLiteral : TokKind::IntLiteral,
                        loc);
    // Suffixes.
    for (;;) {
      const char s = peek();
      if (s == 'f' || s == 'F') {
        if (isHex) fail("'f' suffix on hex literal");
        tok.kind = TokKind::FloatLiteral;
        tok.floatSuffix = true;
        advance();
      } else if ((s == 'u' || s == 'U') && tok.kind == TokKind::IntLiteral) {
        tok.unsignedSuffix = true;
        advance();
      } else if ((s == 'l' || s == 'L') && tok.kind == TokKind::IntLiteral) {
        tok.longSuffix = true;
        advance();
      } else {
        break;
      }
    }
    if (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
      fail("malformed numeric literal");
    }

    if (tok.kind == TokKind::FloatLiteral) {
      tok.floatValue = std::strtod(text.c_str(), nullptr);
    } else {
      tok.intValue = std::strtoull(text.c_str(), nullptr, 0);
    }
    tok.text = std::move(text);
    return tok;
  }

  Token charLiteral(SourceLoc loc) {
    advance(); // opening quote
    char value = 0;
    if (peek() == '\\') {
      advance();
      const char esc = advance();
      switch (esc) {
        case 'n': value = '\n'; break;
        case 't': value = '\t'; break;
        case 'r': value = '\r'; break;
        case '0': value = '\0'; break;
        case '\\': value = '\\'; break;
        case '\'': value = '\''; break;
        default: fail(std::string("unknown escape '\\") + esc + "'");
      }
    } else if (peek() == '\0' || peek() == '\n') {
      fail("unterminated character literal");
    } else {
      value = advance();
    }
    if (peek() != '\'') {
      fail("unterminated character literal");
    }
    advance();
    Token tok = makeTok(TokKind::IntLiteral, loc);
    tok.intValue = static_cast<std::uint64_t>(value);
    tok.text = std::string(1, value);
    return tok;
  }

  Token punctuation(SourceLoc loc) {
    const char c = advance();
    auto two = [&](char second, TokKind twoKind, TokKind oneKind) {
      if (peek() == second) {
        advance();
        return makeTok(twoKind, loc);
      }
      return makeTok(oneKind, loc);
    };
    switch (c) {
      case '(': return makeTok(TokKind::LParen, loc);
      case ')': return makeTok(TokKind::RParen, loc);
      case '{': return makeTok(TokKind::LBrace, loc);
      case '}': return makeTok(TokKind::RBrace, loc);
      case '[': return makeTok(TokKind::LBracket, loc);
      case ']': return makeTok(TokKind::RBracket, loc);
      case ';': return makeTok(TokKind::Semicolon, loc);
      case ',': return makeTok(TokKind::Comma, loc);
      case '.': return makeTok(TokKind::Dot, loc);
      case '?': return makeTok(TokKind::Question, loc);
      case ':': return makeTok(TokKind::Colon, loc);
      case '~': return makeTok(TokKind::Tilde, loc);
      case '#': return makeTok(TokKind::Hash, loc);
      case '+':
        if (peek() == '+') { advance(); return makeTok(TokKind::PlusPlus, loc); }
        return two('=', TokKind::PlusEq, TokKind::Plus);
      case '-':
        if (peek() == '-') { advance(); return makeTok(TokKind::MinusMinus, loc); }
        if (peek() == '>') { advance(); return makeTok(TokKind::Arrow, loc); }
        return two('=', TokKind::MinusEq, TokKind::Minus);
      case '*': return two('=', TokKind::StarEq, TokKind::Star);
      case '/': return two('=', TokKind::SlashEq, TokKind::Slash);
      case '%': return two('=', TokKind::PercentEq, TokKind::Percent);
      case '=': return two('=', TokKind::EqEq, TokKind::Eq);
      case '!': return two('=', TokKind::NotEq, TokKind::Not);
      case '^': return two('=', TokKind::CaretEq, TokKind::Caret);
      case '&':
        if (peek() == '&') { advance(); return makeTok(TokKind::AmpAmp, loc); }
        return two('=', TokKind::AmpEq, TokKind::Amp);
      case '|':
        if (peek() == '|') { advance(); return makeTok(TokKind::PipePipe, loc); }
        return two('=', TokKind::PipeEq, TokKind::Pipe);
      case '<':
        if (peek() == '<') {
          advance();
          return two('=', TokKind::ShlEq, TokKind::Shl);
        }
        return two('=', TokKind::LessEq, TokKind::Less);
      case '>':
        if (peek() == '>') {
          advance();
          return two('=', TokKind::ShrEq, TokKind::Shr);
        }
        return two('=', TokKind::GreaterEq, TokKind::Greater);
      default:
        throw CompileError(std::string("unexpected character '") + c + "'",
                           loc);
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ---------------------------------------------------------------------------
// Preprocessor
// ---------------------------------------------------------------------------

struct Macro {
  bool functionLike = false;
  std::vector<std::string> params;
  std::vector<Token> body;
};

class Preprocessor {
public:
  explicit Preprocessor(std::vector<Token> tokens)
      : in_(std::move(tokens)),
        // Budget proportional to the input size: any legitimate expansion
        // stays far below it; a self-referential macro hits it quickly
        // instead of looping forever.
        expansionBudget_(4096 + 64 * in_.size()) {}

  std::vector<Token> run() {
    while (!atEnd()) {
      const Token& tok = cur();
      if (tok.kind == TokKind::Hash && tok.atLineStart) {
        directive();
        continue;
      }
      if (!activeBranch()) {
        ++pos_;
        continue;
      }
      if (tok.kind == TokKind::Identifier && macros_.count(tok.text) != 0) {
        expandMacro();
        continue;
      }
      out_.push_back(cur());
      ++pos_;
    }
    out_.push_back(in_.back()); // Eof
    if (!condStack_.empty()) {
      throw CompileError("unterminated #if block", in_.back().loc);
    }
    return std::move(out_);
  }

private:
  bool atEnd() const noexcept { return in_[pos_].kind == TokKind::Eof; }
  const Token& cur() const noexcept { return in_[pos_]; }

  bool activeBranch() const noexcept {
    for (const bool active : condStack_) {
      if (!active) {
        return false;
      }
    }
    return true;
  }

  /// Tokens of the current line starting after the '#'.
  std::vector<Token> directiveLine() {
    std::vector<Token> lineTokens;
    ++pos_; // consume '#'
    const int line = in_[pos_ - 1].loc.line;
    while (!atEnd() && !(cur().atLineStart && cur().loc.line != line)) {
      if (cur().loc.line != line && cur().atLineStart) {
        break;
      }
      if (cur().loc.line != line) {
        break;
      }
      lineTokens.push_back(cur());
      ++pos_;
    }
    return lineTokens;
  }

  void directive() {
    const SourceLoc loc = cur().loc;
    std::vector<Token> line = directiveLine();
    if (line.empty()) {
      return; // Null directive '#'.
    }
    const std::string& name = line[0].text;
    if (name == "pragma") {
      return; // Ignored, like a driver ignoring unknown pragmas.
    }
    if (name == "define") {
      if (!activeBranch()) return;
      defineMacro(line, loc);
      return;
    }
    if (name == "undef") {
      if (!activeBranch()) return;
      if (line.size() < 2 || line[1].kind != TokKind::Identifier) {
        throw CompileError("#undef requires an identifier", loc);
      }
      macros_.erase(line[1].text);
      return;
    }
    if (name == "ifdef" || name == "ifndef") {
      if (line.size() < 2 || line[1].kind != TokKind::Identifier) {
        throw CompileError("#" + name + " requires an identifier", loc);
      }
      const bool defined = macros_.count(line[1].text) != 0;
      condStack_.push_back(name == "ifdef" ? defined : !defined);
      return;
    }
    if (name == "else") {
      if (condStack_.empty()) {
        throw CompileError("#else without #ifdef", loc);
      }
      condStack_.back() = !condStack_.back();
      return;
    }
    if (name == "endif") {
      if (condStack_.empty()) {
        throw CompileError("#endif without #ifdef", loc);
      }
      condStack_.pop_back();
      return;
    }
    throw CompileError("unsupported preprocessor directive '#" + name + "'",
                       loc);
  }

  void defineMacro(const std::vector<Token>& line, SourceLoc loc) {
    if (line.size() < 2 || line[1].kind != TokKind::Identifier) {
      throw CompileError("#define requires an identifier", loc);
    }
    Macro macro;
    std::size_t bodyStart = 2;
    // Function-like only when '(' directly follows the name on same column.
    if (line.size() > 2 && line[2].kind == TokKind::LParen &&
        line[2].loc.column == line[1].loc.column +
                                  static_cast<int>(line[1].text.size())) {
      macro.functionLike = true;
      std::size_t i = 3;
      if (i < line.size() && line[i].kind == TokKind::RParen) {
        ++i;
      } else {
        for (;;) {
          if (i >= line.size() || line[i].kind != TokKind::Identifier) {
            throw CompileError("malformed macro parameter list", loc);
          }
          macro.params.push_back(line[i].text);
          ++i;
          if (i < line.size() && line[i].kind == TokKind::Comma) {
            ++i;
            continue;
          }
          if (i < line.size() && line[i].kind == TokKind::RParen) {
            ++i;
            break;
          }
          throw CompileError("malformed macro parameter list", loc);
        }
      }
      bodyStart = i;
    }
    macro.body.assign(line.begin() + static_cast<std::ptrdiff_t>(bodyStart),
                      line.end());
    macros_[line[1].text] = std::move(macro);
  }

  void expandMacro() {
    if (expansionBudget_ == 0) {
      throw CompileError("macro expansion limit exceeded (recursive macro?)",
                         cur().loc);
    }
    --expansionBudget_;
    const Token nameTok = cur();
    const Macro& macro = macros_.at(nameTok.text);
    ++pos_;

    std::vector<Token> expansion;
    if (!macro.functionLike) {
      expansion = macro.body;
    } else {
      if (atEnd() || cur().kind != TokKind::LParen) {
        // Function-like macro without arguments: emit the name unchanged,
        // matching C preprocessor behaviour.
        out_.push_back(nameTok);
        return;
      }
      ++pos_; // '('
      std::vector<std::vector<Token>> args;
      std::vector<Token> current;
      int parenDepth = 0;
      for (;;) {
        if (atEnd()) {
          throw CompileError("unterminated macro invocation", nameTok.loc);
        }
        const Token& t = cur();
        if (t.kind == TokKind::RParen && parenDepth == 0) {
          ++pos_;
          if (!current.empty() || !args.empty() || !macro.params.empty()) {
            args.push_back(std::move(current));
          }
          break;
        }
        if (t.kind == TokKind::Comma && parenDepth == 0) {
          args.push_back(std::move(current));
          current.clear();
          ++pos_;
          continue;
        }
        if (t.kind == TokKind::LParen) ++parenDepth;
        if (t.kind == TokKind::RParen) --parenDepth;
        current.push_back(t);
        ++pos_;
      }
      if (args.size() != macro.params.size()) {
        throw CompileError("macro '" + nameTok.text + "' expects " +
                               std::to_string(macro.params.size()) +
                               " arguments, got " +
                               std::to_string(args.size()),
                           nameTok.loc);
      }
      for (const Token& bodyTok : macro.body) {
        bool substituted = false;
        if (bodyTok.kind == TokKind::Identifier) {
          for (std::size_t p = 0; p < macro.params.size(); ++p) {
            if (bodyTok.text == macro.params[p]) {
              expansion.insert(expansion.end(), args[p].begin(),
                               args[p].end());
              substituted = true;
              break;
            }
          }
        }
        if (!substituted) {
          expansion.push_back(bodyTok);
        }
      }
    }

    // Re-scan the expansion for nested macros by splicing it in front of
    // the remaining input.
    for (Token& t : expansion) {
      t.loc = nameTok.loc;
      t.atLineStart = false;
    }
    in_.insert(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
               expansion.begin(), expansion.end());
  }

  std::vector<Token> in_;
  std::vector<Token> out_;
  std::size_t pos_ = 0;
  std::size_t expansionBudget_;
  std::unordered_map<std::string, Macro> macros_;
  std::vector<bool> condStack_;
};

} // namespace

std::vector<Token> lex(const std::string& source) {
  return Lexer(source).run();
}

namespace {

/// Predefined macros every OpenCL-C compiler provides. Processed as a
/// prelude token stream ahead of the user's source.
const char* kPrelude = R"(
#define CLK_LOCAL_MEM_FENCE 1
#define CLK_GLOBAL_MEM_FENCE 2
#define M_PI 3.14159265358979323846
#define M_PI_F 3.14159274101257f
#define FLT_MAX 3.402823466e+38f
#define FLT_MIN 1.175494351e-38f
#define FLT_EPSILON 1.192092896e-07f
#define DBL_MAX 1.7976931348623157e+308
#define INT_MAX 2147483647
#define INT_MIN (-2147483647 - 1)
#define UINT_MAX 4294967295u
#define MAXFLOAT FLT_MAX
#define INFINITY (1.0f / 0.0f)
#define NAN (0.0f / 0.0f)
#define __OPENCL_VERSION__ 110
#define CLC_SIMULATOR 1
)";

} // namespace

std::vector<Token> preprocess(std::vector<Token> tokens) {
  COMMON_CHECK(!tokens.empty() && tokens.back().kind == TokKind::Eof);
  std::vector<Token> prelude = Lexer(std::string(kPrelude)).run();
  prelude.pop_back(); // drop the prelude's Eof
  // Directive parsing groups tokens by line number; negate prelude lines so
  // they stay distinct from each other but can never collide with (or show
  // up in diagnostics for) user source lines.
  for (Token& t : prelude) {
    t.loc.line = -t.loc.line;
  }
  prelude.insert(prelude.end(), std::make_move_iterator(tokens.begin()),
                 std::make_move_iterator(tokens.end()));
  return Preprocessor(std::move(prelude)).run();
}

std::vector<Token> lexAndPreprocess(const std::string& source) {
  return preprocess(lex(source));
}

} // namespace clc
