// Shareable objects and the class registry — the obicomp substitute.
//
// The Java prototype ran the obicomp tool over each application class to
// generate (a) serialization, (b) the proxy classes, and (c) the RMI
// stub/skeleton dispatch (paper §3.1, Figure 3). C++ has no reflection, so a
// shareable class declares the same information once, in code:
//
//   class Entry : public obiwan::core::Shareable {
//    public:
//     OBIWAN_SHAREABLE(Entry)
//     std::string text;
//     obiwan::core::Ref<Entry> next;
//
//     std::string Text() const { return text; }
//     void SetText(std::string t) { text = std::move(t); }
//
//     static void ObiwanDefine(obiwan::core::ClassDef<Entry>& def) {
//       def.Field("text", &Entry::text)
//          .Ref("next", &Entry::next)
//          .Method("Text", &Entry::Text)
//          .Method("SetText", &Entry::SetText);
//     }
//   };
//   OBIWAN_REGISTER_CLASS(Entry);   // once, at namespace scope in a .cc
//
// From this single declaration the platform derives everything obicomp
// generated: field serialization, reference-graph traversal for incremental
// replication, and the remote-invocation skeleton. Value fields must be
// wire-codable; methods must take wire-codable parameters and return void or
// a wire-codable value. Classes must be default-constructible (replica
// instantiation, like Java serialization's no-arg path).
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/ref.h"
#include "wire/codec.h"

namespace obiwan::core {

class ClassInfo;
class ObjectTable;

// Where an object is registered: the one ObjectTable (one per Site) that
// holds its master or replica record, and the id it is held there under.
// ObjectTable is its only user (core/object_table.cc). Owner and id change
// together under a sequence counter that a writer claims by compare-and-swap
// and holds odd while it writes, so a reader takes no lock and never sees one
// without the other.
class IdentitySlot {
 public:
  IdentitySlot() = default;
  // A copy of an object is a new object: it starts unregistered, and an
  // assigned-to object keeps its own registration.
  IdentitySlot(const IdentitySlot&) noexcept {}
  IdentitySlot& operator=(const IdentitySlot&) noexcept { return *this; }

  // The id `table` holds the object under, or the invalid id.
  ObjectId Read(const ObjectTable* table) const;
  // Register the object at `table` under `candidate` unless it is registered
  // already (first writer wins). Returns the id it is held under at `table`,
  // or the invalid id if another table holds it.
  ObjectId Claim(const ObjectTable* table, ObjectId candidate);
  // Unregister the object if `table` holds it under `id`.
  void Release(const ObjectTable* table, ObjectId id);

 private:
  std::uint32_t LockForWrite();
  // The fields, read or written by the holder of the write lock or inside
  // a reader's sequence check.
  ObjectId HeldBy(const ObjectTable* table) const;
  void Set(const ObjectTable* owner, ObjectId id);

  std::atomic<std::uint32_t> seq_{0};  // odd while a writer is in
  std::atomic<SiteId> site_{kInvalidSite};
  std::atomic<const ObjectTable*> owner_{nullptr};
  std::atomic<std::uint64_t> local_{0};
};

// Base class of every object OBIWAN can replicate or invoke remotely.
class Shareable {
 public:
  virtual ~Shareable() = default;
  virtual const ClassInfo& obiwan_class() const = 0;

 private:
  friend class ObjectTable;
  // An object belongs to at most one site's table; mutable because the
  // table registers objects it reaches through const pointers.
  mutable IdentitySlot identity_;
};

struct FieldInfo {
  std::string name;
  std::function<void(const Shareable&, wire::Writer&)> encode;
  std::function<void(Shareable&, wire::Reader&)> decode;
};

struct RefFieldInfo {
  std::string name;
  std::function<RefBase&(Shareable&)> get;
  std::function<const RefBase&(const Shareable&)> get_const;
};

struct MethodInfo {
  std::string name;
  // Skeleton: decode the argument tuple, invoke, encode the return value.
  std::function<Result<Bytes>(Shareable&, wire::Reader&)> dispatch;
  // Typed-stub support: does `pm` hold the member pointer registered here?
  std::function<bool(const std::any&)> matches;
};

// Immutable description of a registered class; one per class per process.
class ClassInfo {
 public:
  ClassInfo(std::string name, std::function<std::shared_ptr<Shareable>()> factory,
            std::vector<FieldInfo> fields, std::vector<RefFieldInfo> refs,
            std::vector<MethodInfo> methods)
      : name_(std::move(name)),
        factory_(std::move(factory)),
        fields_(std::move(fields)),
        refs_(std::move(refs)),
        methods_(std::move(methods)) {}

  const std::string& name() const { return name_; }
  const std::vector<FieldInfo>& fields() const { return fields_; }
  const std::vector<RefFieldInfo>& refs() const { return refs_; }
  const std::vector<MethodInfo>& methods() const { return methods_; }

  std::shared_ptr<Shareable> NewInstance() const { return factory_(); }

  void EncodeFields(const Shareable& obj, wire::Writer& w) const {
    for (const FieldInfo& f : fields_) f.encode(obj, w);
  }

  Status DecodeFields(Shareable& obj, wire::Reader& r) const {
    for (const FieldInfo& f : fields_) {
      f.decode(obj, r);
      if (!r.ok()) return r.status();
    }
    return Status::Ok();
  }

  const MethodInfo* FindMethod(std::string_view name) const {
    for (const MethodInfo& m : methods_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  // Reverse lookup used by typed stubs: member pointer -> registered name.
  Result<std::string> MethodNameOf(const std::any& pm) const {
    for (const MethodInfo& m : methods_) {
      if (m.matches(pm)) return m.name;
    }
    return NotFoundError("method not registered on class " + name_);
  }

 private:
  std::string name_;
  std::function<std::shared_ptr<Shareable>()> factory_;
  std::vector<FieldInfo> fields_;
  std::vector<RefFieldInfo> refs_;
  std::vector<MethodInfo> methods_;
};

namespace internal {

template <typename R, typename C, typename... Args>
MethodInfo MakeMethodInfo(std::string name, R (C::*m)(Args...)) {
  static_assert((wire::WireCodable<std::remove_cvref_t<Args>> && ...),
                "every remote-method parameter must be wire-codable");
  static_assert(std::is_void_v<R> || wire::WireCodable<std::remove_cvref_t<R>>,
                "a remote-method return type must be void or wire-codable");
  MethodInfo info;
  info.name = std::move(name);
  info.dispatch = [m](Shareable& obj, wire::Reader& args) -> Result<Bytes> {
    auto tuple = wire::Decode<std::tuple<std::remove_cvref_t<Args>...>>(args);
    if (!args.ok()) return args.status();
    C& self = static_cast<C&>(obj);
    wire::Writer ret;
    if constexpr (std::is_void_v<R>) {
      std::apply([&](auto&&... a) { (self.*m)(std::move(a)...); }, std::move(tuple));
    } else {
      wire::Encode(ret, std::apply([&](auto&&... a) { return (self.*m)(std::move(a)...); },
                                   std::move(tuple)));
    }
    return std::move(ret).Take();
  };
  info.matches = [m](const std::any& pm) {
    const auto* p = std::any_cast<R (C::*)(Args...)>(&pm);
    return p != nullptr && *p == m;
  };
  return info;
}

template <typename R, typename C, typename... Args>
MethodInfo MakeMethodInfo(std::string name, R (C::*m)(Args...) const) {
  static_assert((wire::WireCodable<std::remove_cvref_t<Args>> && ...),
                "every remote-method parameter must be wire-codable");
  static_assert(std::is_void_v<R> || wire::WireCodable<std::remove_cvref_t<R>>,
                "a remote-method return type must be void or wire-codable");
  MethodInfo info;
  info.name = std::move(name);
  info.dispatch = [m](Shareable& obj, wire::Reader& args) -> Result<Bytes> {
    auto tuple = wire::Decode<std::tuple<std::remove_cvref_t<Args>...>>(args);
    if (!args.ok()) return args.status();
    const C& self = static_cast<const C&>(obj);
    wire::Writer ret;
    if constexpr (std::is_void_v<R>) {
      std::apply([&](auto&&... a) { (self.*m)(std::move(a)...); }, std::move(tuple));
    } else {
      wire::Encode(ret, std::apply([&](auto&&... a) { return (self.*m)(std::move(a)...); },
                                   std::move(tuple)));
    }
    return std::move(ret).Take();
  };
  info.matches = [m](const std::any& pm) {
    const auto* p = std::any_cast<R (C::*)(Args...) const>(&pm);
    return p != nullptr && *p == m;
  };
  return info;
}

}  // namespace internal

// Fluent builder handed to T::ObiwanDefine.
template <typename T>
class ClassDef {
 public:
  explicit ClassDef(std::string name) : name_(std::move(name)) {
    static_assert(std::is_base_of_v<Shareable, T>,
                  "shareable classes must derive from obiwan::core::Shareable");
    static_assert(std::is_default_constructible_v<T>,
                  "shareable classes must be default-constructible");
  }

  template <typename M>
    requires wire::WireCodable<M>
  ClassDef& Field(std::string name, M T::*ptr) {
    FieldInfo f;
    f.name = std::move(name);
    f.encode = [ptr](const Shareable& obj, wire::Writer& w) {
      wire::Encode(w, static_cast<const T&>(obj).*ptr);
    };
    f.decode = [ptr](Shareable& obj, wire::Reader& r) {
      static_cast<T&>(obj).*ptr = wire::Decode<M>(r);
    };
    fields_.push_back(std::move(f));
    return *this;
  }

  template <typename U>
  ClassDef& Ref(std::string name, core::Ref<U> T::*ptr) {
    RefFieldInfo f;
    f.name = std::move(name);
    f.get = [ptr](Shareable& obj) -> RefBase& { return static_cast<T&>(obj).*ptr; };
    f.get_const = [ptr](const Shareable& obj) -> const RefBase& {
      return static_cast<const T&>(obj).*ptr;
    };
    refs_.push_back(std::move(f));
    return *this;
  }

  template <typename R, typename C, typename... Args>
  ClassDef& Method(std::string name, R (C::*m)(Args...)) {
    static_assert(std::is_base_of_v<C, T>);
    methods_.push_back(internal::MakeMethodInfo(std::move(name), m));
    return *this;
  }

  template <typename R, typename C, typename... Args>
  ClassDef& Method(std::string name, R (C::*m)(Args...) const) {
    static_assert(std::is_base_of_v<C, T>);
    methods_.push_back(internal::MakeMethodInfo(std::move(name), m));
    return *this;
  }

  ClassInfo Build() && {
    return ClassInfo(
        std::move(name_), [] { return std::make_shared<T>(); }, std::move(fields_),
        std::move(refs_), std::move(methods_));
  }

 private:
  std::string name_;
  std::vector<FieldInfo> fields_;
  std::vector<RefFieldInfo> refs_;
  std::vector<MethodInfo> methods_;
};

template <typename T>
const ClassInfo& ClassInfoFor() {
  static const ClassInfo info = [] {
    ClassDef<T> def{std::string(T::kObiwanClassName)};
    T::ObiwanDefine(def);
    return std::move(def).Build();
  }();
  return info;
}

// Process-wide name -> ClassInfo table; the demander side of replication uses
// it to instantiate replicas from wire records.
class ClassRegistry {
 public:
  static ClassRegistry& Instance() {
    static ClassRegistry registry;
    return registry;
  }

  void Register(const ClassInfo* info) {
    std::lock_guard lock(mutex_);
    classes_[info->name()] = info;
  }

  Result<const ClassInfo*> Find(std::string_view name) const {
    std::lock_guard lock(mutex_);
    auto it = classes_.find(std::string(name));
    if (it == classes_.end()) {
      return NotFoundError("class not registered: " + std::string(name));
    }
    return it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, const ClassInfo*> classes_;
};

template <typename T>
struct ClassRegistrar {
  ClassRegistrar() { ClassRegistry::Instance().Register(&ClassInfoFor<T>()); }
};

}  // namespace obiwan::core

// Inside the class body: declares the class name and wires obiwan_class().
#define OBIWAN_SHAREABLE(ClassName)                                      \
 public:                                                                 \
  static constexpr std::string_view kObiwanClassName = #ClassName;       \
  const ::obiwan::core::ClassInfo& obiwan_class() const override {       \
    return ::obiwan::core::ClassInfoFor<ClassName>();                    \
  }

#define OBIWAN_INTERNAL_CONCAT2(a, b) a##b
#define OBIWAN_INTERNAL_CONCAT(a, b) OBIWAN_INTERNAL_CONCAT2(a, b)

// At namespace scope, once per class per binary: makes the class findable by
// name when replicas arrive over the wire.
#define OBIWAN_REGISTER_CLASS(...)                                 \
  static const ::obiwan::core::ClassRegistrar<__VA_ARGS__>         \
      OBIWAN_INTERNAL_CONCAT(obiwan_class_registrar_, __COUNTER__) {}
