// Fixture copy of util/metrics.cpp: its helped-time counter is the one
// sanctioned thread_local there (not flagged); any other is (line 10).
namespace fixture {

namespace {
thread_local double t_helped_seconds = 0.0;
}  // namespace

double helped() { return t_helped_seconds; }
thread_local int t_scratch = 0;

}  // namespace fixture
