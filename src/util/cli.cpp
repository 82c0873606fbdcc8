#include "src/util/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace vapro::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      positional_args_.push_back(i);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_.emplace(arg.substr(0, eq), Value{arg.substr(eq + 1)});
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      ++i;
      values_.emplace(arg, Value{argv[i], i});
    } else {
      values_.emplace(arg, Value{"true", 0, true});  // boolean switch
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  read_.insert(key);
  return values_.count(key) > 0;
}

const CliArgs::Value* CliArgs::find_value(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  if (!it->second.bare) return &it->second;
  valueless_.insert(key);
  return nullptr;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const Value* v = find_value(key);
  return v ? v->text : fallback;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const Value* v = find_value(key);
  return v ? std::strtod(v->text.c_str(), nullptr) : fallback;
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  const Value* v = find_value(key);
  return v ? static_cast<int>(std::strtol(v->text.c_str(), nullptr, 10))
           : fallback;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Value& v = it->second;
  const bool yes = v.text == "true" || v.text == "1" || v.text == "yes";
  const bool no = v.text == "false" || v.text == "0" || v.text == "no";
  if (yes || no || v.next_arg == 0) return yes;
  // "--switch positional": the switch swallowed the next argument.
  const auto at = std::lower_bound(positional_args_.begin(),
                                   positional_args_.end(), v.next_arg);
  positionals_.insert(positionals_.begin() + (at - positional_args_.begin()),
                      v.text);
  positional_args_.insert(at, v.next_arg);
  v = Value{"true", 0, true};
  return true;
}

std::vector<std::string> CliArgs::get_all(const std::string& key) const {
  read_.insert(key);
  std::vector<std::string> out;
  auto [lo, hi] = values_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.bare)
      valueless_.insert(key);
    else
      out.push_back(it->second.text);
  }
  return out;
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> out;
  for (auto it = values_.begin(); it != values_.end();
       it = values_.upper_bound(it->first))
    if (!read_.count(it->first)) out.push_back(it->first);
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace vapro::util
