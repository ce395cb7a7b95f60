#include "ir/IRParser.h"

#include "support/Compiler.h"
#include "support/Format.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace helix;

namespace {

/// Cursor over one line of input.
class LineLexer {
public:
  explicit LineLexer(const std::string &L) : Line(&L) {}

  void skipSpace() {
    while (Pos < Line->size() && std::isspace((unsigned char)(*Line)[Pos]))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Line->size() || (*Line)[Pos] == '#';
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Line->size() && (*Line)[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  char peek() {
    skipSpace();
    return Pos < Line->size() ? (*Line)[Pos] : '\0';
  }

  /// Reads an identifier-like token [A-Za-z0-9_.]+.
  std::string ident() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Line->size() &&
           (std::isalnum((unsigned char)(*Line)[Pos]) || (*Line)[Pos] == '_' ||
            (*Line)[Pos] == '.'))
      ++Pos;
    return Line->substr(Start, Pos - Start);
  }

  /// Reads a (possibly signed, possibly floating) numeric token.
  std::string number() {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Line->size() && ((*Line)[Pos] == '-' || (*Line)[Pos] == '+'))
      ++Pos;
    while (Pos < Line->size() &&
           (std::isdigit((unsigned char)(*Line)[Pos]) || (*Line)[Pos] == '.' ||
            (*Line)[Pos] == 'e' || (*Line)[Pos] == 'E' ||
            (((*Line)[Pos] == '-' || (*Line)[Pos] == '+') && Pos > Start &&
             ((*Line)[Pos - 1] == 'e' || (*Line)[Pos - 1] == 'E'))))
      ++Pos;
    return Line->substr(Start, Pos - Start);
  }

private:
  const std::string *Line;
  size_t Pos = 0;
};

class Parser {
public:
  explicit Parser(const std::string &Text) {
    std::istringstream SS(Text);
    std::string Line;
    while (std::getline(SS, Line))
      Lines.push_back(Line);
  }

  ParseResult run();

private:
  [[nodiscard]] bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = formatStr("line %u: %s", CurLine + 1, Msg.c_str());
    return false;
  }

  static bool isBlank(const std::string &Line) {
    for (char C : Line) {
      if (C == '#')
        return true;
      if (!std::isspace((unsigned char)C))
        return false;
    }
    return true;
  }

  bool prescan();
  bool parseGlobalLine(const std::string &Line);
  bool parseFunctionBody(Function *F, unsigned BodyBegin, unsigned BodyEnd);
  bool parseInstruction(Function *F, BasicBlock *BB, const std::string &Line);
  std::optional<Operand> parseOperand(LineLexer &Lex, Function *F);

  std::vector<std::string> Lines;
  unsigned CurLine = 0;
  std::string Error;
  std::unique_ptr<Module> M;
  // func name -> (header line, body start, body end exclusive of '}')
  struct FuncSpan {
    Function *F;
    unsigned Begin;
    unsigned End;
  };
  std::vector<FuncSpan> FuncSpans;
};

bool Parser::prescan() {
  M = std::make_unique<Module>();
  for (CurLine = 0; CurLine < Lines.size(); ++CurLine) {
    const std::string &Line = Lines[CurLine];
    if (isBlank(Line))
      continue;
    LineLexer Lex(Line);
    if (Lex.peek() == 'g') {
      std::string Kw = Lex.ident();
      if (Kw != "global")
        return fail("expected 'global' or 'func'");
      if (!parseGlobalLine(Line))
        return false;
      continue;
    }
    LineLexer Lex2(Line);
    std::string Kw = Lex2.ident();
    if (Kw != "func")
      return fail("expected 'global' or 'func' at top level, got '" + Kw +
                  "'");
    if (!Lex2.consume('@'))
      return fail("expected '@' after 'func'");
    std::string Name = Lex2.ident();
    if (Name.empty())
      return fail("missing function name");
    if (!Lex2.consume('('))
      return fail("expected '(' after function name");
    std::string NParams = Lex2.number();
    if (NParams.empty())
      return fail("missing parameter count");
    if (!Lex2.consume(')') || !Lex2.consume('{'))
      return fail("expected '(N) {' in function header");
    if (M->findFunction(Name))
      return fail("duplicate function @" + Name);
    Function *F =
        M->createFunction(Name, unsigned(std::strtoul(NParams.c_str(),
                                                      nullptr, 10)));
    unsigned Begin = CurLine + 1;
    unsigned Depth = CurLine;
    // Find the closing '}' line.
    unsigned EndLine = Begin;
    bool Found = false;
    for (; EndLine < Lines.size(); ++EndLine) {
      LineLexer L(Lines[EndLine]);
      if (L.peek() == '}') {
        Found = true;
        break;
      }
    }
    (void)Depth;
    if (!Found)
      return fail("missing '}' for function @" + Name);
    FuncSpans.push_back({F, Begin, EndLine});
    CurLine = EndLine;
  }
  return true;
}

bool Parser::parseGlobalLine(const std::string &Line) {
  LineLexer Lex(Line);
  std::string Kw = Lex.ident();
  assert(Kw == "global" && "caller checked keyword");
  if (!Lex.consume('@'))
    return fail("expected '@' after 'global'");
  std::string Name = Lex.ident();
  if (Name.empty())
    return fail("missing global name");
  std::string SizeTok = Lex.number();
  if (SizeTok.empty())
    return fail("missing global size");
  uint64_t Size = std::strtoull(SizeTok.c_str(), nullptr, 10);
  if (Size == 0)
    return fail("global size must be positive");
  if (M->findGlobal(Name) != ~0u)
    return fail("duplicate global @" + Name);
  unsigned Idx = M->createGlobal(Name, Size);
  if (Lex.consume('=')) {
    if (!Lex.consume('{'))
      return fail("expected '{' after '='");
    GlobalVariable &G = M->global(Idx);
    while (!Lex.consume('}')) {
      std::string V = Lex.number();
      if (V.empty())
        return fail("bad global initializer");
      G.Init.push_back(std::strtoll(V.c_str(), nullptr, 10));
      Lex.consume(',');
    }
    if (G.Init.size() > G.Size)
      return fail("more initializers than slots in @" + Name);
  }
  return true;
}

std::optional<Operand> Parser::parseOperand(LineLexer &Lex, Function *F) {
  char C = Lex.peek();
  if (C == 'r') {
    std::string Tok = Lex.ident();
    if (Tok.size() < 2) {
      (void)fail("bad register token '" + Tok + "'");
      return std::nullopt;
    }
    unsigned Reg = unsigned(std::strtoul(Tok.c_str() + 1, nullptr, 10));
    F->ensureRegCount(Reg + 1);
    return Operand::reg(Reg);
  }
  if (C == '@') {
    Lex.consume('@');
    std::string Name = Lex.ident();
    unsigned Idx = M->findGlobal(Name);
    if (Idx == ~0u) {
      (void)fail("unknown global @" + Name);
      return std::nullopt;
    }
    return Operand::global(Idx);
  }
  // Non-finite float immediates print as inf/-inf/nan/-nan (%.17g); they
  // must parse back, or modules computing them would not round-trip.
  {
    LineLexer Probe = Lex;
    bool Neg = Probe.consume('-');
    std::string Word = Probe.ident();
    if (Word == "inf" || Word == "nan") {
      Lex = Probe;
      double V = Word == "inf" ? std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::quiet_NaN();
      return Operand::immFloat(Neg ? -V : V);
    }
  }
  std::string Num = Lex.number();
  if (Num.empty()) {
    (void)fail("expected operand");
    return std::nullopt;
  }
  if (Num.find('.') != std::string::npos ||
      Num.find('e') != std::string::npos || Num.find('E') != std::string::npos)
    return Operand::immFloat(std::strtod(Num.c_str(), nullptr));
  return Operand::immInt(std::strtoll(Num.c_str(), nullptr, 10));
}

bool Parser::parseFunctionBody(Function *F, unsigned BodyBegin,
                               unsigned BodyEnd) {
  // First pass: create blocks for labels so branches can forward-reference.
  for (CurLine = BodyBegin; CurLine < BodyEnd; ++CurLine) {
    const std::string &Line = Lines[CurLine];
    if (isBlank(Line))
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    // A label line contains only "name:".
    LineLexer Lex(Line);
    std::string Label = Lex.ident();
    if (!Label.empty() && Lex.consume(':') && Lex.atEnd()) {
      if (F->findBlock(Label))
        return fail("duplicate label '" + Label + "'");
      F->createBlock(Label);
    }
  }
  if (F->numBlocks() == 0)
    return fail("function @" + F->name() + " has no blocks");

  // Second pass: parse instructions into the current block.
  BasicBlock *BB = nullptr;
  for (CurLine = BodyBegin; CurLine < BodyEnd; ++CurLine) {
    const std::string &Line = Lines[CurLine];
    if (isBlank(Line))
      continue;
    LineLexer Lex(Line);
    std::string First = Lex.ident();
    if (!First.empty() && Lex.consume(':') && Lex.atEnd()) {
      BB = F->findBlock(First);
      assert(BB && "label created in first pass");
      continue;
    }
    if (!BB)
      return fail("instruction before first label");
    if (!parseInstruction(F, BB, Line))
      return false;
  }
  return true;
}

bool Parser::parseInstruction(Function *F, BasicBlock *BB,
                              const std::string &Line) {
  LineLexer Lex(Line);
  unsigned Dest = NoReg;
  // Optional "rN =" prefix.
  if (Lex.peek() == 'r') {
    LineLexer Probe = Lex;
    std::string Tok = Probe.ident();
    if (Probe.consume('=') && Tok.size() >= 2 && Tok[0] == 'r' &&
        std::isdigit((unsigned char)Tok[1])) {
      Dest = unsigned(std::strtoul(Tok.c_str() + 1, nullptr, 10));
      F->ensureRegCount(Dest + 1);
      Lex = Probe;
    }
  }

  std::string Name = Lex.ident();
  static const std::map<std::string, Opcode> OpcodeByName = [] {
    std::map<std::string, Opcode> ByName;
    for (unsigned Op = 0; Op <= unsigned(Opcode::Nop); ++Op)
      ByName[opcodeName(Opcode(Op))] = Opcode(Op);
    return ByName;
  }();
  auto It = OpcodeByName.find(Name);
  if (It == OpcodeByName.end())
    return fail("unknown opcode '" + Name + "'");
  Opcode Op = It->second;

  Instruction *I = BB->append(Op);
  if (Dest != NoReg)
    I->setDest(Dest);

  auto ParseOps = [&](unsigned Count) {
    for (unsigned K = 0; K != Count; ++K) {
      if (K && !Lex.consume(','))
        return fail("expected ','");
      std::optional<Operand> O = parseOperand(Lex, F);
      if (!O)
        return false;
      I->addOperand(*O);
    }
    return true;
  };

  switch (Op) {
  case Opcode::Br: {
    std::string Label = Lex.ident();
    BasicBlock *T = F->findBlock(Label);
    if (!T)
      return fail("unknown label '" + Label + "'");
    I->setTarget1(T);
    break;
  }
  case Opcode::CondBr: {
    std::optional<Operand> Cond = parseOperand(Lex, F);
    if (!Cond)
      return false;
    I->addOperand(*Cond);
    if (!Lex.consume(','))
      return fail("expected ',' after condbr condition");
    std::string L1 = Lex.ident();
    if (!Lex.consume(','))
      return fail("expected ',' between condbr labels");
    std::string L2 = Lex.ident();
    BasicBlock *T1 = F->findBlock(L1), *T2 = F->findBlock(L2);
    if (!T1 || !T2)
      return fail("unknown condbr label");
    I->setTarget1(T1);
    I->setTarget2(T2);
    break;
  }
  case Opcode::Call: {
    if (!Lex.consume('@'))
      return fail("expected '@callee' after call");
    std::string Callee = Lex.ident();
    Function *CF = M->findFunction(Callee);
    if (!CF)
      return fail("unknown function @" + Callee);
    I->setCallee(CF);
    if (!Lex.consume('('))
      return fail("expected '(' after callee");
    if (!Lex.consume(')')) {
      while (true) {
        std::optional<Operand> O = parseOperand(Lex, F);
        if (!O)
          return false;
        I->addOperand(*O);
        if (Lex.consume(')'))
          break;
        if (!Lex.consume(','))
          return fail("expected ',' or ')' in call arguments");
      }
    }
    break;
  }
  case Opcode::Alloca:
  case Opcode::Wait:
  case Opcode::SignalOp: {
    std::string Num = Lex.number();
    if (Num.empty())
      return fail("missing immediate");
    I->setImm(std::strtoll(Num.c_str(), nullptr, 10));
    break;
  }
  case Opcode::Ret: {
    if (!Lex.atEnd()) {
      std::optional<Operand> O = parseOperand(Lex, F);
      if (!O)
        return false;
      I->addOperand(*O);
    }
    break;
  }
  case Opcode::IterStart:
  case Opcode::Nop:
    break;
  case Opcode::Store:
    if (!ParseOps(2))
      return false;
    break;
  case Opcode::Mov:
  case Opcode::Load:
  case Opcode::HeapAlloc:
  case Opcode::IntToFP:
  case Opcode::FPToInt:
    if (!ParseOps(1))
      return false;
    break;
  default:
    assert(isBinaryOpcode(Op) && "unhandled opcode class in parser");
    if (!ParseOps(2))
      return false;
    break;
  }

  if (!Lex.atEnd())
    return fail("trailing tokens after instruction");
  return true;
}

ParseResult Parser::run() {
  ParseResult Result;
  if (!prescan()) {
    Result.Error = Error;
    return Result;
  }
  for (const FuncSpan &Span : FuncSpans) {
    if (!parseFunctionBody(Span.F, Span.Begin, Span.End)) {
      Result.Error = Error;
      return Result;
    }
  }
  Result.M = std::move(M);
  return Result;
}

} // namespace

ParseResult helix::parseModule(const std::string &Text) {
  Parser P(Text);
  return P.run();
}
