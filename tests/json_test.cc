// Round-trip and robustness tests for util/json's writer + parser (the
// substrate of both the bench snapshots and the obs/ trace sinks).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "util/json.h"

namespace relser {
namespace {

TEST(JsonWriter, RoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("relser \"quoted\" \\ path\n");
  w.Key("count");
  w.Int(-42);
  w.Key("ratio");
  w.Double(0.125);
  w.Key("flag");
  w.Bool(true);
  w.Key("missing");
  w.Null();
  w.Key("items");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.EndArray();
  w.EndObject();

  const auto parsed = JsonValue::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Find("name")->string_value(),
            "relser \"quoted\" \\ path\n");
  EXPECT_EQ(parsed->Find("count")->number_value(), -42.0);
  EXPECT_EQ(parsed->Find("ratio")->number_value(), 0.125);
  EXPECT_TRUE(parsed->Find("flag")->bool_value());
  EXPECT_TRUE(parsed->Find("missing")->is_null());
  ASSERT_NE(parsed->Find("items"), nullptr);
  ASSERT_EQ(parsed->Find("items")->array_items().size(), 2u);
  EXPECT_EQ(parsed->Find("items")->array_items()[1].number_value(), 2.0);
  EXPECT_EQ(parsed->Find("absent"), nullptr);
}

TEST(JsonParser, AcceptsUnicodeEscapes) {
  const auto parsed = JsonValue::Parse("{\"s\":\"a\\u00e9A\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->string_value(), "a\xc3\xa9"
                                               "A");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("01x").ok());
}

TEST(JsonParser, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  std::string shallow = "[[[[[[1]]]]]]";
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
}

TEST(WriteBenchJsonFile, LeavesTheRepositoryRootAlone) {
  // A throwaway repository (a directory holding the root marker) with a
  // build directory inside it; the bench runs from the build directory.
  namespace fs = std::filesystem;
  const fs::path saved_cwd = fs::current_path();
  const fs::path root = fs::temp_directory_path() /
                        ("relser_json_test_" +
                         std::to_string(std::random_device{}()));
  fs::remove_all(root);
  fs::create_directories(root / "build");
  std::ofstream(root / "ROADMAP.md") << "marker\n";
  fs::current_path(root / "build");

  const bool untagged = WriteBenchJsonFile("BENCH_probe.json", "{}");
  const bool tagged = WriteBenchJsonFile("BENCH_probe.json", "{}", "t1");
  fs::current_path(saved_cwd);
  EXPECT_TRUE(untagged);
  EXPECT_TRUE(tagged);
  EXPECT_TRUE(fs::exists(root / "build" / "BENCH_probe.json"));
  EXPECT_FALSE(fs::exists(root / "BENCH_probe.json"));
  EXPECT_TRUE(
      fs::exists(root / "bench" / "trajectory" / "BENCH_probe_t1.json"));
  fs::remove_all(root);
}

}  // namespace
}  // namespace relser
