// A copyable, type-erased message body with inline storage.
//
// Simulated packets carry protocol-specific message structs that the
// layers below their protocols cannot name: the simulator and the wire
// codec sit under the modules that define the messages, many of them
// local to one .cpp file.  Body holds any copyable value, as std::any
// does, but keeps a value of up to kInlineBytes inside the object, so
// building, copying, moving and destroying a packet body does not touch
// the heap.  The room fits the largest message struct in src/.  A larger
// value (a reliable transport's DataMsg, which nests a Body) takes one
// heap block.  get<T>() returns nullptr on a type mismatch.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace aa {

class Body {
 public:
  /// The largest message struct in src/ (overlay::RouteMsg, 88 bytes
  /// on x86-64).
  static constexpr std::size_t kInlineBytes = 88;

  /// Word alignment: no message struct needs more, and a wider one
  /// would pad every Body.
  static constexpr std::size_t kInlineAlign = 8;

  /// True when a T lives inside the Body; other types take the heap.
  /// Moving a Body must not throw, so an inline type must not either.
  template <typename T>
  static constexpr bool stores_inline = sizeof(T) <= kInlineBytes &&
                                        alignof(T) <= kInlineAlign &&
                                        std::is_nothrow_move_constructible_v<T>;

  Body() noexcept {}

  template <typename T, typename V = std::decay_t<T>>
    requires(!std::is_same_v<V, Body>)
  Body(T&& value) {  // implicit, as std::any's is
    emplace<V>(std::forward<T>(value));
  }

  Body(const Body& other) {
    if (other.ops_ != nullptr) other.ops_->copy(other, *this);
  }
  Body(Body&& other) noexcept {
    if (other.ops_ != nullptr) other.ops_->move(other, *this);
  }
  Body& operator=(const Body& other) {
    if (this != &other) *this = Body(other);
    return *this;
  }
  /// Leaves `other` empty.
  Body& operator=(Body&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) other.ops_->move(other, *this);
    }
    return *this;
  }
  ~Body() { reset(); }

  bool has_value() const noexcept { return ops_ != nullptr; }

  /// The held value, or nullptr when the Body holds another type.
  template <typename T>
  const T* get() const noexcept {
    return const_cast<Body*>(this)->get<T>();
  }
  template <typename T>
  T* get() noexcept {
    using V = std::remove_cv_t<T>;
    if (ops_ != &Handler<V>::kOps) return nullptr;
    return Handler<V>::ptr(*this);
  }

 private:
  template <typename V, typename... Args>
  void emplace(Args&&... args) {
    reset();
    if constexpr (stores_inline<V>) {
      ::new (static_cast<void*>(storage_)) V(std::forward<Args>(args)...);
    } else {
      heap_ = new V(std::forward<Args>(args)...);
    }
    ops_ = &Handler<V>::kOps;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

  struct Ops {
    /// Constructs a copy of `from`'s value in the empty `to`.
    void (*copy)(const Body& from, Body& to);
    /// Moves `from`'s value into the empty `to`, leaving `from` empty.
    void (*move)(Body& from, Body& to) noexcept;
    void (*destroy)(Body& b) noexcept;
  };

  // One Ops per stored type; its address is the type's identity.
  template <typename V>
  struct Handler {
    static V* ptr(Body& b) noexcept {
      if constexpr (stores_inline<V>) {
        return std::launder(reinterpret_cast<V*>(b.storage_));
      } else {
        return static_cast<V*>(b.heap_);
      }
    }
    static void copy(const Body& from, Body& to) {
      to.emplace<V>(*ptr(const_cast<Body&>(from)));
    }
    static void move(Body& from, Body& to) noexcept {
      if constexpr (stores_inline<V>) {
        ::new (static_cast<void*>(to.storage_)) V(std::move(*ptr(from)));
        ptr(from)->~V();
      } else {
        to.heap_ = from.heap_;
      }
      to.ops_ = from.ops_;
      from.ops_ = nullptr;
    }
    static void destroy(Body& b) noexcept {
      if constexpr (stores_inline<V>) {
        ptr(b)->~V();
      } else {
        delete ptr(b);
      }
    }
    static constexpr Ops kOps{&copy, &move, &destroy};
  };

  union {
    alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

}  // namespace aa
