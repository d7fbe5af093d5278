// The calling thread's RunScope (gala/scope/run_scope.hpp) as an opaque
// handle, so ThreadPool can carry a caller's scope to the workers that run
// its chunks without depending on the observers.
#pragma once

namespace gala {

class RunScope;

namespace detail {
inline thread_local RunScope* installed_scope = nullptr;  // null: the process default
}  // namespace detail

/// Installs `scope` (null: the process default) on the calling thread until
/// destruction, which restores the previous one.
class EnterScope {
 public:
  explicit EnterScope(RunScope* scope) : prev_(detail::installed_scope) {
    detail::installed_scope = scope;
  }
  ~EnterScope() { detail::installed_scope = prev_; }
  EnterScope(const EnterScope&) = delete;
  EnterScope& operator=(const EnterScope&) = delete;

  /// The scope installed on the calling thread (null: the process default).
  static RunScope* installed() { return detail::installed_scope; }

 private:
  RunScope* prev_;
};

}  // namespace gala
