// Minimal command-line flag parser for the driver tools: supports
// --key=value and --key value forms plus boolean switches.  Every lookup
// records its key, so once a tool has read all the flags it knows,
// unread() names the ones it does not (typos, retired flags).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vapro::util {

class CliArgs {
 public:
  // Parses argv: "--key=value", "--key value" (the next argument, unless
  // it starts with "--") and bare "--key" (a switch) become flags; every
  // other argument is a positional.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  // The value lookups below return the fallback for a bare "--key" and
  // note the key in valueless(): a flag that takes a value has none.
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;
  // A boolean switch cannot know at parse time that it takes no value, so
  // "--switch file" first files `file` as the switch's value.  When that
  // value is not a boolean literal (true/false, 1/0, yes/no), get_bool
  // returns true and hands `file` back to the positionals at its place.
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  // All values passed for a repeatable flag (e.g. several --noise=...).
  std::vector<std::string> get_all(const std::string& key) const;

  // Flags given on the command line that no has/get* call has looked up
  // yet, in sorted order.
  std::vector<std::string> unread() const;
  // Flags given bare that a value lookup (get, get_int, get_double,
  // get_all) asked for, in sorted order.
  std::vector<std::string> valueless() const {
    return {valueless_.begin(), valueless_.end()};
  }

 private:
  struct Value {
    std::string text;
    int next_arg = 0;  // argv index when taken from the following argument
    bool bare = false;  // "--key" with no value: a switch
  };

  // Marks `key` read; null when absent or bare (noting the latter).
  const Value* find_value(const std::string& key) const;

  // Mutable so get_bool can return a swallowed positional.
  mutable std::multimap<std::string, Value> values_;
  mutable std::vector<std::string> positionals_;
  mutable std::vector<int> positional_args_;  // argv index of each positional
  mutable std::set<std::string> read_;
  mutable std::set<std::string> valueless_;
};

// Splits "a:b:c" into fields.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace vapro::util
