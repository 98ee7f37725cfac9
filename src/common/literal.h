// Literal: a string literal, checked at compile time.
//
// Code that keeps a pointer to text instead of copying it (a span record's
// category and kind) takes a Literal: its constructor is consteval, so only
// text with static storage gets in.
#pragma once

#include <cstddef>
#include <string_view>

namespace obiwan {

class Literal {
 public:
  template <std::size_t N>
  consteval Literal(const char (&text)[N])  // NOLINT(google-explicit-constructor)
      : text_(text) {}
  const char* c_str() const { return text_; }
  operator std::string_view() const {  // NOLINT(google-explicit-constructor)
    return text_;
  }

 private:
  const char* text_;
};

}  // namespace obiwan
