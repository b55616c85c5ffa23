#include "exp/option_set.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace pert::exp::cli {

double parse_double(std::string_view s) {
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (buf.empty() || end != buf.c_str() + buf.size())
    throw std::invalid_argument("expected a number, got: " + buf);
  return v;
}

bool parse_bool(std::string_view s) {
  if (s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  throw std::invalid_argument("expected 0|1|true|false|on|off, got: " +
                              std::string(s));
}

OptionSet::OptionSet(std::string program, std::string about)
    : program_(std::move(program)), about_(std::move(about)) {}

OptionSet& OptionSet::add(const std::string& name,
                          std::function<void(const std::string&)> set,
                          const std::string& help, const std::string& metavar) {
  specs_.push_back({name, false, std::move(set), help, metavar});
  return *this;
}

OptionSet& OptionSet::flag(const std::string& name, bool* out,
                           const std::string& help) {
  specs_.push_back(
      {name, true, [out](const std::string&) { *out = true; }, help, ""});
  return *this;
}

OptionSet& OptionSet::opt(const std::string& name, std::string* out,
                          const std::string& help, const std::string& metavar) {
  return add(name, [out](const std::string& v) { *out = v; }, help, metavar);
}

OptionSet& OptionSet::opt(const std::string& name, double* out,
                          const std::string& help, const std::string& metavar) {
  return opt(name, out, parse_double, help, metavar);
}

OptionSet& OptionSet::opt(const std::string& name, bool* out,
                          const std::string& help, const std::string& metavar) {
  return opt(name, out, parse_bool, help, metavar);
}

OptionSet& OptionSet::operands(std::vector<std::string>* out,
                               const std::string& metavar) {
  operands_ = out;
  operands_metavar_ = metavar;
  return *this;
}

OptionSet& OptionSet::check(std::function<void()> fn) {
  checks_.push_back(std::move(fn));
  return *this;
}

OptionSet::Spec* OptionSet::find(std::string_view name) {
  for (Spec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

bool OptionSet::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "-h" || arg == "--help") return false;
    const bool dashed = arg.size() >= 2 && arg[0] == '-';
    const std::size_t eq = arg.find('=');
    if (!dashed && eq == std::string::npos) {
      if (operands_ == nullptr)
        throw std::invalid_argument("unexpected argument: " + arg);
      operands_->push_back(arg);
      continue;
    }
    const std::string name = arg.substr(0, eq);
    Spec* spec = find(name);
    if (spec == nullptr) {
      if (!dashed && operands_ != nullptr) {  // an operand that has an '='
        operands_->push_back(arg);
        continue;
      }
      throw std::invalid_argument(
          (dashed ? "unknown flag: " : "unknown key: ") + name);
    }
    std::string value;
    if (spec->is_flag) {
      if (eq != std::string::npos)
        throw std::invalid_argument(name + " does not take a value");
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      throw std::invalid_argument(name + " needs a value");
    }
    try {
      spec->set(value);
    } catch (const std::exception& e) {
      throw std::invalid_argument(name + ": " + e.what());
    }
    spec->given = true;
  }
  for (const auto& fn : checks_) fn();
  return true;
}

void OptionSet::parse_or_exit(int argc, char** argv, int error_status) {
  try {
    if (parse(std::vector<std::string>(argv + 1, argv + argc))) return;
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage().c_str());
    std::exit(error_status);
  }
}

bool OptionSet::given(const std::string& name) const {
  for (const Spec& s : specs_)
    if (s.name == name) return s.given;
  return false;
}

std::string OptionSet::usage() const {
  const auto is_key = [](const Spec& s) { return s.name[0] != '-'; };
  std::string out = "usage: " + program_;
  if (!std::all_of(specs_.begin(), specs_.end(), is_key)) out += " [options]";
  if (std::any_of(specs_.begin(), specs_.end(), is_key))
    out += " [key=value ...]";
  if (operands_ != nullptr) out += " " + operands_metavar_;
  out += "\n";
  if (!about_.empty()) out += about_ + "\n";
  // Align help text past the longest "--name METAVAR" / "key=METAVAR".
  const auto left_of = [&](const Spec& s) {
    return s.is_flag ? s.name
                     : s.name + (is_key(s) ? "=" : " ") + s.metavar;
  };
  std::size_t width = 0;
  for (const Spec& s : specs_) width = std::max(width, left_of(s).size());
  for (const bool keys : {false, true}) {
    bool first = true;
    for (const Spec& s : specs_) {
      if (is_key(s) != keys) continue;
      if (first) out += keys ? "\nkeys:\n" : "\noptions:\n";
      first = false;
      const std::string left = left_of(s);
      out += "  " + left + std::string(width - left.size() + 2, ' ') + s.help +
             "\n";
    }
  }
  return out;
}

}  // namespace pert::exp::cli
