// String-keyed registry of named modules, written once for every layer that
// picks a module by name (tcp::CcRegistry, net::QdiscRegistry).
//
// An `Info` is a plain struct with a `name`, a one-line `summary`, its
// layer's flags and a factory `make`, plus the registry's vocabulary and
// built-ins:
//
//   static constexpr std::string_view kRegistry = "CcRegistry";
//   static constexpr std::string_view kKind = "congestion-control module";
//   static void add_builtins(sim::Registry<CcInfo>& r);
//
// instance() calls add_builtins inside its magic static: thread-safe, exactly
// once, and immune to the dead-stripping that makes static-initializer
// self-registration unreliable in static libraries. Out-of-tree modules use a
// file-scope Registrar<Info>. A duplicate name is a ConfigError: silently
// shadowing a module would corrupt every comparison that names it.
//
// Every runner thread looks modules up while it builds its cell, so one mutex
// guards the list. Entries are never removed: what find() and at() return
// stays valid.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/errors.h"
#include "sim/suggest.h"

namespace pert::sim {

template <class Info>
class Registry {
 public:
  /// The process-wide registry; the layer's built-ins are registered on
  /// first access.
  static Registry& instance() {
    static Registry* reg = [] {
      auto* r = new Registry();
      Info::add_builtins(*r);
      return r;
    }();
    return *reg;
  }

  /// Registers a module. Throws ConfigError for an empty or duplicate name
  /// or a null factory.
  void add(Info info) {
    if (info.name.empty())
      throw ConfigError(prefix() + " name must not be empty",
                        diagnostics("name", ""));
    if (info.make == nullptr)
      throw ConfigError(prefix() + " '" + info.name + "' has no factory",
                        diagnostics("make", info.name));
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& m : modules_)
      if (m->name == info.name)
        throw ConfigError(
            prefix() + " '" + info.name +
                "' is already registered (a second registration would "
                "silently shadow the first)",
            diagnostics("name", info.name));
    modules_.push_back(std::make_unique<Info>(std::move(info)));
  }

  /// The module named `name`, or nullptr when none is registered.
  const Info* find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& m : modules_)
      if (m->name == name) return m.get();
    return nullptr;
  }

  /// The module named `name`. An unknown name throws ConfigError: what()
  /// reads "unknown <kind>: '<name>'", plus " (did you mean '<hint>'?)" when
  /// a registered name is close; diagnostics() carries the component=/param=
  /// line and the known names.
  const Info& at(const std::string& name) const {
    if (const Info* info = find(name)) return *info;
    const std::vector<std::string> known = names();
    std::string msg =
        "unknown " + std::string(Info::kKind) + ": '" + name + "'";
    if (const std::string hint = closest_match(name, known); !hint.empty())
      msg += " (did you mean '" + hint + "'?)";
    std::string diag = diagnostics("name", name) + "known names:";
    for (const std::string& n : known) diag += " " + n;
    throw ConfigError(msg, diag + "\n");
  }

  /// All registered modules, sorted by name.
  std::vector<Info> list() const {
    std::vector<Info> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& m : modules_) out.push_back(*m);
    }
    std::sort(out.begin(), out.end(),
              [](const Info& a, const Info& b) { return a.name < b.name; });
    return out;
  }

  /// Registered names, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const Info& m : list()) out.push_back(m.name);
    return out;
  }

  /// at(name).make(ctx): builds the named module, or throws as at() does.
  template <class Context>
  auto make(const std::string& name, const Context& ctx) const {
    return at(name).make(ctx);
  }

 private:
  Registry() = default;

  static std::string prefix() {
    return std::string(Info::kRegistry) + ": " + std::string(Info::kKind);
  }
  static std::string diagnostics(const std::string& param,
                                 const std::string& value) {
    return "component=" + std::string(Info::kRegistry) + " param=" + param +
           " value=" + value + "\n";
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Info>> modules_;  ///< stable pointees
};

/// File-scope static self-registration for out-of-tree modules:
///   static const sim::Registrar<tcp::CcInfo> reg(
///       {"mycc", "...", false, &make_mycc});
template <class Info>
struct Registrar {
  explicit Registrar(Info info) {
    Registry<Info>::instance().add(std::move(info));
  }
};

}  // namespace pert::sim
