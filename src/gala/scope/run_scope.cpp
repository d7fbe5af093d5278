#include "gala/scope/run_scope.hpp"

namespace gala {

RunScope::RunScope() : prev_(EnterScope::installed()) { detail::installed_scope = this; }

RunScope::~RunScope() {
  if (detail::installed_scope == this) detail::installed_scope = prev_;
}

RunScope& RunScope::process_default() {
  // Installed on the thread that first asks for it, like any scope; every
  // other thread reaches it through the null handle.
  static RunScope scope;
  return scope;
}

}  // namespace gala
