#include "harness/options.hpp"

#include <gtest/gtest.h>

namespace hypercast::harness {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParsesKeyValuePairs) {
  const auto o = parse({"--n", "6", "--algo", "wsort"});
  EXPECT_EQ(o.get_int("n"), 6);
  EXPECT_EQ(o.get("algo"), "wsort");
  EXPECT_TRUE(o.has("n"));
  EXPECT_FALSE(o.has("m"));
}

TEST(Options, BareFlagsBecomeTrue) {
  const auto o = parse({"--quick", "--n", "4"});
  EXPECT_EQ(o.get("quick"), "true");
  EXPECT_EQ(o.get_int("n"), 4);
}

TEST(Options, DefaultsViaOrForms) {
  const auto o = parse({"--n", "4"});
  EXPECT_EQ(o.get_or("algo", "wsort"), "wsort");
  EXPECT_EQ(o.get_int_or("seed", 17), 17);
}

TEST(Options, MissingRequiredThrows) {
  const auto o = parse({"--n", "4"});
  EXPECT_THROW(o.get("algo"), std::invalid_argument);
  EXPECT_THROW(o.get_int("m"), std::invalid_argument);
}

TEST(Options, RejectsMalformedArguments) {
  EXPECT_THROW(parse({"n", "4"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Options, RepeatedKeysAccumulateAndLastWins) {
  // Multi-value style (--header k:v --header k:v) plus the "append an
  // override to a base command line" idiom: single-value getters read
  // the final occurrence.
  const auto o = parse({"--header", "a:1", "--n", "4", "--header=b:2",
                        "--n", "5", "--header", "c:3"});
  EXPECT_EQ(o.count("header"), 3u);
  EXPECT_EQ(o.get_all("header"),
            (std::vector<std::string>{"a:1", "b:2", "c:3"}));
  EXPECT_EQ(o.get("header"), "c:3");
  EXPECT_EQ(o.get_int("n"), 5);
  EXPECT_EQ(o.count("n"), 2u);
}

TEST(Options, GetAllOnMissingAndSingleKeys) {
  const auto o = parse({"--algo", "wsort"});
  EXPECT_TRUE(o.get_all("missing").empty());
  EXPECT_EQ(o.count("missing"), 0u);
  EXPECT_EQ(o.get_all("algo"), (std::vector<std::string>{"wsort"}));
}

TEST(Options, RepeatedBareAndValuedMix) {
  // Bare occurrences contribute "true"; is_bare_flag tracks the last
  // occurrence, so "--cache --cache off" parses as off and vice versa.
  const auto off = parse({"--cache", "--cache", "off"});
  EXPECT_FALSE(off.is_bare_flag("cache"));
  EXPECT_EQ(off.get("cache"), "off");
  EXPECT_EQ(off.get_all("cache"), (std::vector<std::string>{"true", "off"}));
  const auto on = parse({"--cache", "off", "--cache"});
  EXPECT_TRUE(on.is_bare_flag("cache"));
  EXPECT_EQ(on.get("cache"), "true");
}

TEST(Options, KeyEqualsValueSyntax) {
  const auto o = parse({"--n=6", "--label=fig09"});
  EXPECT_EQ(o.get_int("n"), 6);
  EXPECT_EQ(o.get("label"), "fig09");
  EXPECT_FALSE(o.is_bare_flag("n"));
}

TEST(Options, EqualsSyntaxAcceptsValuesStartingWithDashes) {
  // The escape hatch the space syntax cannot express: a value that
  // itself begins with "--".
  const auto o = parse({"--passthrough=--benchmark_filter=all", "--x=-2"});
  EXPECT_EQ(o.get("passthrough"), "--benchmark_filter=all");
  EXPECT_EQ(o.get_int("x"), -2);
}

TEST(Options, EqualsSyntaxAllowsEmptyValue) {
  const auto o = parse({"--out="});
  EXPECT_TRUE(o.has("out"));
  EXPECT_EQ(o.get("out"), "");
}

TEST(Options, EmptyKeyBeforeEqualsThrows) {
  EXPECT_THROW(parse({"--=5"}), std::invalid_argument);
}

TEST(Options, RepeatAcrossSyntaxes) {
  const auto o = parse({"--n", "4", "--n=5"});
  EXPECT_EQ(o.get_int("n"), 5);
  EXPECT_EQ(o.get_all("n"), (std::vector<std::string>{"4", "5"}));
}

TEST(Options, BareFlagRejectedByTypedGetters) {
  // "--n --quick": n swallows no value (next token is an option), so
  // asking for an integer must fail loudly instead of parsing "true".
  const auto o = parse({"--n", "--quick"});
  EXPECT_TRUE(o.is_bare_flag("n"));
  EXPECT_FALSE(o.is_bare_flag("missing"));
  EXPECT_THROW(o.get_int("n"), std::invalid_argument);
  EXPECT_THROW(o.get_double("n"), std::invalid_argument);
  EXPECT_EQ(o.get("n"), "true");  // untyped access still works
}

TEST(Options, RejectsNonIntegerInts) {
  const auto o = parse({"--n", "4x"});
  EXPECT_THROW(o.get_int("n"), std::invalid_argument);
}

TEST(Options, ParsesNodeLists) {
  const auto o = parse({"--dests", "1,3,12"});
  EXPECT_EQ(o.get_nodes("dests"),
            (std::vector<hcube::NodeId>{1, 3, 12}));
  const auto single = parse({"--dests", "7"});
  EXPECT_EQ(single.get_nodes("dests"), (std::vector<hcube::NodeId>{7}));
}

TEST(Options, RejectsBadNodeLists) {
  EXPECT_THROW(parse({"--dests", "1,,3"}).get_nodes("dests"),
               std::invalid_argument);
  EXPECT_THROW(parse({"--dests", "1,x"}).get_nodes("dests"),
               std::invalid_argument);
}

TEST(Options, ResolutionParsing) {
  EXPECT_EQ(parse({}).resolution(), hcube::Resolution::HighToLow);
  EXPECT_EQ(parse({"--res", "high"}).resolution(),
            hcube::Resolution::HighToLow);
  EXPECT_EQ(parse({"--res", "low"}).resolution(),
            hcube::Resolution::LowToHigh);
  EXPECT_THROW(parse({"--res", "sideways"}).resolution(),
               std::invalid_argument);
}

TEST(Options, PortParsing) {
  EXPECT_EQ(parse({}).port().kind, core::PortModel::Kind::AllPort);
  EXPECT_EQ(parse({"--port", "one"}).port().kind,
            core::PortModel::Kind::OnePort);
  const auto k = parse({"--port", "k:3"}).port();
  EXPECT_EQ(k.kind, core::PortModel::Kind::KPort);
  EXPECT_EQ(k.k, 3);
  EXPECT_THROW(parse({"--port", "k:0"}).port(), std::invalid_argument);
  EXPECT_THROW(parse({"--port", "none"}).port(), std::invalid_argument);
}

TEST(Options, RejectUnknownNamesTheFlagAndListsTheKnownOnes) {
  static constexpr std::string_view kKnown[] = {"port", "quiet"};
  EXPECT_NO_THROW(parse({"--port", "4", "--quiet"}).reject_unknown(kKnown));
  EXPECT_NO_THROW(parse({}).reject_unknown(kKnown));
  const auto rejection = [](const Options& o) -> std::string {
    try {
      o.reject_unknown(kKnown);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection(parse({"--help"})),
            "unknown flag --help (known: --port --quiet)");
  EXPECT_EQ(rejection(parse({"--port", "4", "--cosched-overlp=4"})),
            "unknown flag --cosched-overlp (known: --port --quiet)");
}

TEST(Options, RangedIntegersNameTheFlagAndTheRange) {
  const auto o = parse({"--port", "70000", "--depth", "1"});
  EXPECT_EQ(o.get_int_in("depth", 1, 8), 1);
  EXPECT_EQ(o.get_int_in_or("seed", 0, 0, 9), 0);
  EXPECT_THROW(o.get_int_in("seed", 0, 9), std::invalid_argument);
  try {
    o.get_int_in("port", 1, 65535);
    ADD_FAILURE() << "--port 70000 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--port must be in [1, 65535], got 70000");
  }
  // The fallback is range-checked too: a default out of range is a bug.
  EXPECT_THROW(o.get_int_in_or("dim", 0, 1, 20), std::invalid_argument);
}

TEST(Options, KeysListsEverything) {
  const auto o = parse({"--a", "1", "--b", "2"});
  auto keys = o.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace hypercast::harness
