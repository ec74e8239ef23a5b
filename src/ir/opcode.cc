#include "ir/opcode.hh"

#include "support/diag.hh"

namespace swp
{

FuClass
fuClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
        return FuClass::Mem;
      case Opcode::Add:
      case Opcode::Copy:
      case Opcode::Nop:
      case Opcode::Select:
        return FuClass::Adder;
      case Opcode::Mul:
        return FuClass::Mult;
      case Opcode::Div:
      case Opcode::Sqrt:
        return FuClass::DivSqrt;
    }
    SWP_PANIC("unknown opcode ", int(op));
}

bool
producesValue(Opcode op)
{
    return op != Opcode::Store && op != Opcode::Nop;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Load: return "ld";
      case Opcode::Store: return "st";
      case Opcode::Add: return "add";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Sqrt: return "sqrt";
      case Opcode::Copy: return "copy";
      case Opcode::Nop: return "nop";
      case Opcode::Select: return "sel";
    }
    SWP_PANIC("unknown opcode ", int(op));
}

bool
parseOpcode(const std::string &name, Opcode &out)
{
    for (int op = 0; op < numOpcodes; ++op) {
        if (name == opcodeName(Opcode(op))) {
            out = Opcode(op);
            return true;
        }
    }
    return false;
}

const char *
fuClassName(FuClass fu)
{
    switch (fu) {
      case FuClass::Mem: return "mem";
      case FuClass::Adder: return "adder";
      case FuClass::Mult: return "mult";
      case FuClass::DivSqrt: return "divsqrt";
    }
    SWP_PANIC("unknown fu class ", int(fu));
}

} // namespace swp
