// The one command-line grammar of every bench and tool binary.
//
//   --flag             boolean, presence sets true
//   --opt V / --opt=V  valued option
//   key=V              an option registered under a bare name (the scenario
//                      keys of pert_sim)
//   operand            a bare token without '=', for binaries that declare
//                      operands (file lists); an error everywhere else
//
// Each binary registers exactly the options it reads. A registration binds
// an option to a variable and to a converter from text; the typed opt()
// overloads pick the converter from the variable's type, and integers are
// range-checked against it. Unknown tokens, converter failures and failed
// check() hooks are usage errors naming the token; --help/-h prints the
// usage, generated from the registrations.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pert::exp::cli {

/// Converters behind the typed opt() overloads. Each throws
/// std::invalid_argument quoting text its type cannot hold.
double parse_double(std::string_view s);
/// 1|true|on or 0|false|off.
bool parse_bool(std::string_view s);
/// Decimal integer, no sign for unsigned T, within T's range.
template <std::integral T>
T parse_int(std::string_view s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty())
    throw std::invalid_argument(
        "expected an integer in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) +
        "], got: " + std::string(s));
  return v;
}

class OptionSet {
 public:
  /// `program` names the binary in usage output; `about` is an optional
  /// description printed above the option list.
  explicit OptionSet(std::string program, std::string about = "");

  /// --name: presence sets *out to true.
  OptionSet& flag(const std::string& name, bool* out, const std::string& help);

  /// A valued option ("--name", written --name V or --name=V) or a key (a
  /// bare "name", written name=V), stored in *out as `convert(text)`.
  /// `convert` throws (std::invalid_argument, or any std::exception) on
  /// bad text. Each occurrence converts again, so a converter that reads
  /// *out can compose repeated values.
  template <class T, std::invocable<const std::string&> Convert>
  OptionSet& opt(const std::string& name, T* out, Convert convert,
                 const std::string& help, const std::string& metavar = "V") {
    return add(
        name, [out, convert](const std::string& v) { *out = convert(v); },
        help, metavar);
  }
  OptionSet& opt(const std::string& name, std::string* out,
                 const std::string& help, const std::string& metavar = "V");
  OptionSet& opt(const std::string& name, double* out, const std::string& help,
                 const std::string& metavar = "X");
  OptionSet& opt(const std::string& name, bool* out, const std::string& help,
                 const std::string& metavar = "0|1");
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  OptionSet& opt(const std::string& name, T* out, const std::string& help,
                 const std::string& metavar = "N") {
    return opt(name, out, parse_int<T>, help, metavar);
  }

  /// Bare tokens without '=' are appended to *out. Without this they are
  /// an error.
  OptionSet& operands(std::vector<std::string>* out,
                      const std::string& metavar);

  /// Runs `fn` once every token is parsed (registration order). It throws
  /// std::invalid_argument to reject a combination of values.
  OptionSet& check(std::function<void()> fn);

  /// Parses `args` (argv without the program name) and runs the checks.
  /// Throws std::invalid_argument naming the bad token. Returns false,
  /// with nothing after it parsed, when --help/-h is seen.
  bool parse(const std::vector<std::string>& args);

  /// The argv front end of every main(): on --help prints the usage to
  /// stdout and exits 0; on bad input prints "error: ..." and the usage to
  /// stderr and exits `error_status`.
  void parse_or_exit(int argc, char** argv, int error_status = 2);

  /// Whether option `name` (as registered) appeared in the parsed tokens.
  bool given(const std::string& name) const;

  /// The generated usage text.
  std::string usage() const;

 private:
  struct Spec {
    std::string name;  ///< "--jobs", or a bare key name like "flows"
    bool is_flag;
    std::function<void(const std::string&)> set;
    std::string help;
    std::string metavar;
    bool given = false;
  };

  OptionSet& add(const std::string& name,
                 std::function<void(const std::string&)> set,
                 const std::string& help, const std::string& metavar);
  Spec* find(std::string_view name);

  std::string program_;
  std::string about_;
  std::vector<Spec> specs_;
  std::vector<std::function<void()>> checks_;
  std::vector<std::string>* operands_ = nullptr;
  std::string operands_metavar_;
};

}  // namespace pert::exp::cli
