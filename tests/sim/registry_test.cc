// sim::Registry contract, on a toy Info with no tcp/ or net/ dependency:
// built-ins on first access, a static registrar beside them, add-time
// rejections, sorted listings, at()'s unknown-name error, make(), and adds
// racing lookups. tcp::CcRegistry and net::QdiscRegistry are this template.
#include "sim/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/errors.h"

namespace pert::sim {
namespace {

int make_one(int base) { return base + 1; }
int make_two(int base) { return base + 2; }

struct ToyInfo {
  static constexpr std::string_view kRegistry = "ToyRegistry";
  static constexpr std::string_view kKind = "toy module";
  static inline int builtin_calls = 0;
  static void add_builtins(Registry<ToyInfo>& r) {
    ++builtin_calls;
    // Out of order on purpose: names() and list() must sort.
    r.add({"beta", "second built-in", &make_two});
    r.add({"alpha", "first built-in", &make_one});
  }

  std::string name;
  std::string summary;
  int (*make)(int) = nullptr;
};

using ToyRegistry = Registry<ToyInfo>;

const Registrar<ToyInfo> gamma_registrar({"gamma", "static probe", &make_one});

/// The ConfigError `fn` throws; fails the test when it throws none.
template <class Fn>
ConfigError error_of(Fn fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ConfigError";
  return ConfigError("", "");
}

TEST(Registry, BuiltinsRegisterOnceBesideAStaticRegistrar) {
  auto& r = ToyRegistry::instance();
  EXPECT_EQ(&r, &ToyRegistry::instance());
  EXPECT_EQ(ToyInfo::builtin_calls, 1);
  for (const char* name : {"alpha", "beta", "gamma"})
    EXPECT_NE(r.find(name), nullptr) << name;
  EXPECT_EQ(r.find("delta"), nullptr);
}

TEST(Registry, RejectsDuplicateEmptyAndFactorylessEntries) {
  auto& r = ToyRegistry::instance();
  EXPECT_STREQ(error_of([&] { r.add({"alpha", "shadow", &make_two}); }).what(),
               "ToyRegistry: toy module 'alpha' is already registered (a "
               "second registration would silently shadow the first)");
  EXPECT_THROW(r.add({"gamma", "shadows the registrar", &make_two}),
               ConfigError);
  EXPECT_STREQ(error_of([&] { r.add({"", "no name", &make_one}); }).what(),
               "ToyRegistry: toy module name must not be empty");
  const ConfigError no_factory =
      error_of([&] { r.add({"null-factory", "no make", nullptr}); });
  EXPECT_STREQ(no_factory.what(),
               "ToyRegistry: toy module 'null-factory' has no factory");
  EXPECT_EQ(no_factory.diagnostics(),
            "component=ToyRegistry param=make value=null-factory\n");
  EXPECT_EQ(r.find("null-factory"), nullptr);
  EXPECT_EQ(r.at("alpha").summary, "first built-in");
}

TEST(Registry, NamesAndListAreSorted) {
  auto& r = ToyRegistry::instance();
  const std::vector<std::string> names = r.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const std::vector<ToyInfo> list = r.list();
  ASSERT_EQ(list.size(), names.size());
  for (std::size_t i = 0; i < list.size(); ++i)
    EXPECT_EQ(list[i].name, names[i]);
}

TEST(Registry, AtNamesTheUnknownNameAndSuggestsACloseOne) {
  auto& r = ToyRegistry::instance();
  const ConfigError typo = error_of([&] { r.at("alpah"); });
  EXPECT_STREQ(typo.what(), "unknown toy module: 'alpah' (did you mean "
                            "'alpha'?)");
  const std::string diag = typo.diagnostics();
  // The known names sort before any name the race test adds ("race-...").
  EXPECT_EQ(diag.rfind("component=ToyRegistry param=name value=alpah\n"
                       "known names: alpha beta gamma",
                       0),
            0u)
      << diag;
  EXPECT_EQ(diag.back(), '\n');

  EXPECT_STREQ(error_of([&] { r.at("zzzzzzzz"); }).what(),
               "unknown toy module: 'zzzzzzzz'");
  // An empty name is no typo of a short one.
  EXPECT_STREQ(error_of([&] { r.at(""); }).what(), "unknown toy module: ''");
  EXPECT_THROW(r.make("alpah", 0), ConfigError);
}

TEST(Registry, MakeCallsTheNamedFactory) {
  auto& r = ToyRegistry::instance();
  EXPECT_EQ(r.make("alpha", 40), 41);
  EXPECT_EQ(r.make("beta", 40), 42);
}

TEST(Registry, AddsRaceLookupsWithoutLosingAName) {
  auto& r = ToyRegistry::instance();
  constexpr int kNames = 200;
  auto key = [](int i) { return "race-" + std::to_string(1000 + i); };
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&, t] {
      started.fetch_add(1);
      for (int i = t; !stop.load(); i = (i + 7) % kNames) {
        if (r.find("alpha") == nullptr || r.at("beta").make(0) != 2)
          bad.fetch_add(1);
        const std::string k = key(i);
        if (const ToyInfo* p = r.find(k); p != nullptr && p->name != k)
          bad.fetch_add(1);
        const std::vector<std::string> names = r.names();
        if (!std::is_sorted(names.begin(), names.end())) bad.fetch_add(1);
      }
    });
  while (started.load() < 4) std::this_thread::yield();
  for (int i = 0; i < kNames; ++i) r.add({key(i), "raced", &make_one});
  stop.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(bad.load(), 0);
  for (int i = 0; i < kNames; ++i)
    EXPECT_NE(r.find(key(i)), nullptr) << key(i);
}

}  // namespace
}  // namespace pert::sim
