#include "obicomp/idl.h"

#include <cctype>
#include <map>
#include <sstream>

namespace obiwan::obicomp {
namespace {

// --- tokenizer -----------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kPunct, kEnd };
  Kind kind;
  std::string text;
  int line;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  Result<Token> Next() {
    SkipWhitespaceAndComments();
    if (pos_ >= source_.size()) return Token{Token::Kind::kEnd, "", line_};
    char c = source_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      // Numeric literal (field defaults); lexed as an identifier-like token.
      std::size_t start = pos_++;
      while (pos_ < source_.size() &&
             (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
              source_[pos_] == '.')) {
        ++pos_;
      }
      return Token{Token::Kind::kIdent,
                   std::string(source_.substr(start, pos_ - start)), line_};
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < source_.size() &&
             (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
              source_[pos_] == '_')) {
        ++pos_;
      }
      return Token{Token::Kind::kIdent,
                   std::string(source_.substr(start, pos_ - start)), line_};
    }
    if (c == '{' || c == '}' || c == '(' || c == ')' || c == ';' || c == ',' ||
        c == '<' || c == '>' || c == '=') {
      ++pos_;
      return Token{Token::Kind::kPunct, std::string(1, c), line_};
    }
    return InvalidArgumentError("line " + std::to_string(line_) +
                                ": unexpected character '" + std::string(1, c) + "'");
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < source_.size()) {
      char c = source_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < source_.size() && source_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

Status ErrAt(int line, const std::string& message) {
  return InvalidArgumentError("line " + std::to_string(line) + ": " + message);
}

// --- parser -------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source) {}

  Result<IdlFile> Parse() {
    OBIWAN_RETURN_IF_ERROR(Advance());
    IdlFile file;
    while (current_.kind != Token::Kind::kEnd) {
      if (current_.kind == Token::Kind::kIdent && current_.text == "enum") {
        OBIWAN_RETURN_IF_ERROR(Advance());
        OBIWAN_ASSIGN_OR_RETURN(IdlEnum decl, ParseEnum());
        file.enums.push_back(std::move(decl));
        continue;
      }
      OBIWAN_RETURN_IF_ERROR(ExpectIdent("class"));
      OBIWAN_ASSIGN_OR_RETURN(IdlClass cls, ParseClass());
      file.classes.push_back(std::move(cls));
    }
    if (file.classes.empty() && file.enums.empty()) {
      return InvalidArgumentError("no classes or enums declared");
    }
    return file;
  }

 private:
  Result<IdlEnum> ParseEnum() {
    IdlEnum decl;
    OBIWAN_ASSIGN_OR_RETURN(decl.name, TakeIdent("enum name"));
    OBIWAN_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!(current_.kind == Token::Kind::kPunct && current_.text == "}")) {
      if (!decl.values.empty()) OBIWAN_RETURN_IF_ERROR(ExpectPunct(","));
      OBIWAN_ASSIGN_OR_RETURN(std::string value, TakeIdent("enum value"));
      decl.values.push_back(std::move(value));
    }
    OBIWAN_RETURN_IF_ERROR(Advance());  // consume '}'
    if (decl.values.empty()) {
      return InvalidArgumentError("enum " + decl.name + " has no values");
    }
    return decl;
  }

  Result<IdlClass> ParseClass() {
    IdlClass cls;
    OBIWAN_ASSIGN_OR_RETURN(cls.name, TakeIdent("class name"));
    OBIWAN_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!(current_.kind == Token::Kind::kPunct && current_.text == "}")) {
      if (current_.kind != Token::Kind::kIdent) {
        return ErrAt(current_.line, "expected member declaration");
      }
      if (current_.text == "field") {
        OBIWAN_RETURN_IF_ERROR(Advance());
        IdlField field;
        OBIWAN_ASSIGN_OR_RETURN(field.type, TakeType());
        OBIWAN_ASSIGN_OR_RETURN(field.name, TakeIdent("field name"));
        if (current_.kind == Token::Kind::kPunct && current_.text == "=") {
          OBIWAN_RETURN_IF_ERROR(Advance());
          OBIWAN_ASSIGN_OR_RETURN(field.default_value,
                                  TakeIdent("default value"));
        }
        OBIWAN_RETURN_IF_ERROR(ExpectPunct(";"));
        cls.fields.push_back(std::move(field));
      } else if (current_.text == "ref") {
        OBIWAN_RETURN_IF_ERROR(Advance());
        IdlRef ref;
        OBIWAN_ASSIGN_OR_RETURN(ref.target, TakeIdent("ref target class"));
        OBIWAN_ASSIGN_OR_RETURN(ref.name, TakeIdent("ref name"));
        OBIWAN_RETURN_IF_ERROR(ExpectPunct(";"));
        cls.refs.push_back(std::move(ref));
      } else if (current_.text == "method") {
        OBIWAN_RETURN_IF_ERROR(Advance());
        OBIWAN_ASSIGN_OR_RETURN(IdlMethod method, ParseMethod());
        cls.methods.push_back(std::move(method));
      } else {
        return ErrAt(current_.line, "unknown member kind '" + current_.text +
                                        "' (expected field/ref/method)");
      }
    }
    OBIWAN_RETURN_IF_ERROR(Advance());  // consume '}'
    return cls;
  }

  Result<IdlMethod> ParseMethod() {
    IdlMethod method;
    if (current_.kind == Token::Kind::kIdent && current_.text == "void") {
      method.return_type = "void";
      OBIWAN_RETURN_IF_ERROR(Advance());
    } else {
      OBIWAN_ASSIGN_OR_RETURN(method.return_type, TakeType());
    }
    OBIWAN_ASSIGN_OR_RETURN(method.name, TakeIdent("method name"));
    OBIWAN_RETURN_IF_ERROR(ExpectPunct("("));
    while (!(current_.kind == Token::Kind::kPunct && current_.text == ")")) {
      if (!method.params.empty()) OBIWAN_RETURN_IF_ERROR(ExpectPunct(","));
      IdlParam param;
      OBIWAN_ASSIGN_OR_RETURN(param.type, TakeType());
      OBIWAN_ASSIGN_OR_RETURN(param.name, TakeIdent("parameter name"));
      method.params.push_back(std::move(param));
    }
    OBIWAN_RETURN_IF_ERROR(Advance());  // consume ')'
    if (current_.kind == Token::Kind::kIdent && current_.text == "const") {
      method.is_const = true;
      OBIWAN_RETURN_IF_ERROR(Advance());
    }
    OBIWAN_RETURN_IF_ERROR(ExpectPunct(";"));
    return method;
  }

  // Types are an identifier or list<T>.
  Result<std::string> TakeType() {
    Result<std::string> base = TakeIdent("type");
    if (!base.ok() || *base != "list") return base;
    OBIWAN_RETURN_IF_ERROR(ExpectPunct("<"));
    OBIWAN_ASSIGN_OR_RETURN(std::string inner, TakeType());
    OBIWAN_RETURN_IF_ERROR(ExpectPunct(">"));
    return "list<" + inner + ">";
  }

  Status Advance() {
    OBIWAN_ASSIGN_OR_RETURN(current_, lexer_.Next());
    return Status::Ok();
  }

  Status ExpectIdent(const std::string& word) {
    if (current_.kind != Token::Kind::kIdent || current_.text != word) {
      return ErrAt(current_.line, "expected '" + word + "', got '" +
                                      current_.text + "'");
    }
    return Advance();
  }

  Status ExpectPunct(const std::string& punct) {
    if (current_.kind != Token::Kind::kPunct || current_.text != punct) {
      return ErrAt(current_.line, "expected '" + punct + "', got '" +
                                      current_.text + "'");
    }
    return Advance();
  }

  Result<std::string> TakeIdent(const std::string& what) {
    if (current_.kind != Token::Kind::kIdent) {
      return ErrAt(current_.line, "expected " + what + ", got '" +
                                      current_.text + "'");
    }
    std::string text = current_.text;
    OBIWAN_RETURN_IF_ERROR(Advance());
    return text;
  }

  Lexer lexer_;
  Token current_{Token::Kind::kEnd, "", 0};
};

const std::map<std::string, std::string, std::less<>>& ScalarTypes() {
  static const std::map<std::string, std::string, std::less<>> kTypes = {
      {"bool", "bool"},
      {"i8", "std::int8_t"},
      {"i16", "std::int16_t"},
      {"i32", "std::int32_t"},
      {"i64", "std::int64_t"},
      {"u8", "std::uint8_t"},
      {"u16", "std::uint16_t"},
      {"u32", "std::uint32_t"},
      {"u64", "std::uint64_t"},
      {"f32", "float"},
      {"f64", "double"},
      {"string", "std::string"},
      {"bytes", "obiwan::Bytes"},
  };
  return kTypes;
}

}  // namespace

Result<IdlFile> ParseIdl(std::string_view source) {
  return Parser(source).Parse();
}

Result<std::string> CppTypeOf(std::string_view idl_type) {
  if (idl_type.starts_with("list<") && idl_type.ends_with(">")) {
    OBIWAN_ASSIGN_OR_RETURN(
        std::string inner,
        CppTypeOf(idl_type.substr(5, idl_type.size() - 6)));
    return "std::vector<" + inner + ">";
  }
  auto it = ScalarTypes().find(idl_type);
  if (it == ScalarTypes().end()) {
    return InvalidArgumentError("unknown type '" + std::string(idl_type) + "'");
  }
  return it->second;
}

Result<std::string> GenerateHeader(const IdlFile& file,
                                   const std::string& source_name) {
  std::ostringstream out;
  std::map<std::string, std::size_t, std::less<>> enum_sizes;
  for (const IdlEnum& decl : file.enums) {
    enum_sizes.emplace(decl.name, decl.values.size());
  }
  // Field/param/return types may name a declared enum.
  auto resolve_type = [&](std::string_view idl_type) -> Result<std::string> {
    if (enum_sizes.contains(idl_type)) return std::string(idl_type);
    return CppTypeOf(idl_type);
  };
  out << "// Generated by obicomp from " << source_name << " — do not edit.\n";
  out << "//\n";
  out << "// Implement the declared methods in your own .cc, and register each\n";
  out << "// class once per binary:   OBIWAN_REGISTER_CLASS(<Class>);\n";
  out << "#pragma once\n\n";
  out << "#include <cstdint>\n#include <string>\n#include <vector>\n\n";
  out << "#include \"core/ref.h\"\n#include \"core/shareable.h\"\n"
      << "#include \"wire/codec.h\"\n\n";

  // Forward declarations so Ref<X> members can point forward (and so ported
  // files keep working whatever order their classes were written in).
  for (const IdlClass& cls : file.classes) {
    out << "class " << cls.name << ";\n";
  }
  out << "\n";

  // Enums, each with a range-checked wire codec.
  for (const IdlEnum& decl : file.enums) {
    out << "enum class " << decl.name << " : std::uint8_t {\n";
    for (const std::string& value : decl.values) {
      out << "  " << value << ",\n";
    }
    out << "};\n\n";
    out << "template <>\n";
    out << "struct obiwan::wire::Codec<" << decl.name << "> {\n";
    out << "  static void Encode(obiwan::wire::Writer& w, " << decl.name
        << " v) {\n";
    out << "    w.Varint(static_cast<std::uint64_t>(v));\n";
    out << "  }\n";
    out << "  static " << decl.name
        << " Decode(obiwan::wire::Reader& r) {\n";
    out << "    std::uint64_t raw = r.Varint();\n";
    out << "    if (raw >= " << decl.values.size() << "u) {\n";
    out << "      r.Fail(\"out-of-range " << decl.name << "\");\n";
    out << "      return " << decl.name << "{};\n";
    out << "    }\n";
    out << "    return static_cast<" << decl.name << ">(raw);\n";
    out << "  }\n";
    out << "};\n\n";
  }

  for (const IdlClass& cls : file.classes) {
    out << "class " << cls.name << " : public obiwan::core::Shareable {\n";
    out << " public:\n";
    out << "  OBIWAN_SHAREABLE(" << cls.name << ")\n\n";

    for (const IdlField& field : cls.fields) {
      OBIWAN_ASSIGN_OR_RETURN(std::string type, resolve_type(field.type));
      std::string init = field.default_value;
      if (!init.empty() && enum_sizes.contains(field.type)) {
        init = field.type + "::" + init;  // bare enum value -> qualified
      }
      out << "  " << type << " " << field.name << "{" << init << "};\n";
    }
    for (const IdlRef& ref : cls.refs) {
      out << "  obiwan::core::Ref<" << ref.target << "> " << ref.name << ";\n";
    }
    out << "\n";

    for (const IdlMethod& method : cls.methods) {
      std::string ret = "void";
      if (method.return_type != "void") {
        OBIWAN_ASSIGN_OR_RETURN(ret, resolve_type(method.return_type));
      }
      out << "  " << ret << " " << method.name << "(";
      for (std::size_t i = 0; i < method.params.size(); ++i) {
        OBIWAN_ASSIGN_OR_RETURN(std::string type,
                                resolve_type(method.params[i].type));
        if (i != 0) out << ", ";
        out << type << " " << method.params[i].name;
      }
      out << ")" << (method.is_const ? " const" : "") << ";\n";
    }
    out << "\n";

    out << "  static void ObiwanDefine(obiwan::core::ClassDef<" << cls.name
        << ">& def) {\n";
    if (cls.fields.empty() && cls.refs.empty() && cls.methods.empty()) {
      out << "    (void)def;\n  }\n};\n\n";
      continue;
    }
    out << "    def";
    for (const IdlField& field : cls.fields) {
      out << "\n        .Field(\"" << field.name << "\", &" << cls.name
          << "::" << field.name << ")";
    }
    for (const IdlRef& ref : cls.refs) {
      out << "\n        .Ref(\"" << ref.name << "\", &" << cls.name
          << "::" << ref.name << ")";
    }
    for (const IdlMethod& method : cls.methods) {
      out << "\n        .Method(\"" << method.name << "\", &" << cls.name
          << "::" << method.name << ")";
    }
    out << ";\n";
    out << "  }\n";
    out << "};\n\n";
  }
  return out.str();
}

}  // namespace obiwan::obicomp
