//===- support/Interner.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include <cassert>

using namespace fearless;

Symbol Interner::intern(std::string_view Text) {
  assert(!Text.empty() && "interning an empty identifier");
  if ((Spellings.size() + 1) * 4 > Slots.size() * 3)
    grow();
  size_t Hash = std::hash<std::string_view>()(Text);
  size_t Mask = Slots.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    uint32_t Id = Slots[I];
    if (Id == 0) {
      Id = static_cast<uint32_t>(Spellings.size());
      Slots[I] = Id;
      Spellings.emplace_back(Text);
      Hashes.push_back(Hash);
      return Symbol{Id};
    }
    if (Hashes[Id] == Hash && Spellings[Id] == Text)
      return Symbol{Id};
  }
}

void Interner::grow() {
  Slots.assign(Slots.empty() ? 64 : Slots.size() * 2, 0);
  size_t Mask = Slots.size() - 1;
  for (uint32_t Id = 1; Id < Spellings.size(); ++Id) {
    size_t I = Hashes[Id] & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Id;
  }
}

const std::string &Interner::spelling(Symbol Sym) const {
  assert(Sym.isValid() && Sym.Id < Spellings.size() &&
         "spelling of an unknown symbol");
  return Spellings[Sym.Id];
}
