//===- support/Interner.h - String interning ------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A string interner mapping identifier spellings to dense Symbol ids, so
/// that names can be compared and used as map keys cheaply and printed
/// stably.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_INTERNER_H
#define FEARLESS_SUPPORT_INTERNER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

/// A dense id for an interned identifier. Symbol 0 is the invalid symbol.
struct Symbol {
  uint32_t Id = 0;

  bool isValid() const { return Id != 0; }
  bool operator==(const Symbol &) const = default;
  auto operator<=>(const Symbol &) const = default;
};

/// Interns identifier spellings; owned by a Program. Lookup is an
/// open-addressed table of ids probed by the spelling's hash and compared
/// against Spellings in place, so finding a known name allocates nothing.
class Interner {
public:
  /// Returns the unique Symbol for \p Text, interning it if new.
  Symbol intern(std::string_view Text);

  /// Returns the spelling of \p Sym; Sym must be valid and owned here.
  const std::string &spelling(Symbol Sym) const;

  /// Number of interned symbols (excluding the invalid symbol).
  size_t size() const { return Spellings.size() - 1; }

private:
  void grow();

  std::vector<std::string> Spellings = {""}; // index 0 reserved: invalid
  std::vector<size_t> Hashes = {0};          // parallel to Spellings
  /// Power-of-two slots, each a Symbol id or 0 for empty; at most 3/4 full.
  std::vector<uint32_t> Slots;
};

} // namespace fearless

template <> struct std::hash<fearless::Symbol> {
  size_t operator()(const fearless::Symbol &S) const noexcept {
    return std::hash<uint32_t>()(S.Id);
  }
};

#endif // FEARLESS_SUPPORT_INTERNER_H
