// Replica-lifecycle measurement for the versioned LMR tier (src/mdv/lmr),
// plus the crash harness behind the CI replication smoke.
//
// Default mode emits BENCH_replication.json:
//   - full-join latency as a function of cache size: a replica that is
//     already subscribed issues JoinReplica(delta=false) against an MDP
//     holding {64, 256, 1024} matching documents and we time the
//     request -> chunked snapshot -> finalize round trip over the
//     asynchronous transport, plus the bytes it moved;
//   - delta catchup vs full snapshot: the same replica is made stale on
//     1/8 of the documents (updates published while it sits in
//     kTimeToLive mode, which drops pushes), then rejoins with
//     delta=true. The MDP's per-resource version cursor skips
//     everything the replica already holds, so catchup bytes must be
//     strictly below the full-snapshot bytes at every size.
//
// Crash harness (used by .github/workflows/ci.yml):
//   replication_bench --crash-dir D --serve
//     builds a durable MDP (D/mdp) + durable LMR (D/lmr) on the
//     default inline transport with fsync-per-append, prints SERVING,
//     then registers documents (with an update every tenth document so
//     version stamps advance past 1) until killed -9 mid-storm.
//   replication_bench --crash-dir D --recover
//     recovers both images onto an asynchronous network, audits the
//     cache, delta-joins the revived replica, full-joins a fresh
//     replica, and requires (a) delta bytes strictly below the fresh
//     replica's full-snapshot bytes (measured from transport stats) and
//     (b) the two caches byte-identical. Exit 0 on success, 1 on any
//     violation.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mdv/lmr.h"
#include "mdv/metadata_provider.h"
#include "mdv/network.h"
#include "rdf/schema.h"
#include "wal/log.h"

namespace mdv::bench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kReplRule =
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64";

std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("mdv_replication_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// A two-resource document whose host strongly references its info.
/// `memory` > 64 keeps every document inside kReplRule's match set so
/// the cache size equals the document count.
rdf::RdfDocument MakeReplDoc(size_t i, int memory) {
  const std::string uri = "repl/doc" + std::to_string(i) + ".rdf";
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(memory)));
  info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost", rdf::PropertyValue::Literal("repl.host"));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(uri + "#info"));
  BenchCheck(doc.AddResource(std::move(info)), "AddResource info");
  BenchCheck(doc.AddResource(std::move(host)), "AddResource host");
  return doc;
}

/// Canonical text form of a replica's cache: uri, entry version, sorted
/// resource content and match/closure markers. Two converged replicas
/// must produce byte-identical dumps.
std::string DumpCache(const LocalMetadataRepository& lmr) {
  std::vector<std::string> lines;
  for (const std::string& uri : lmr.CachedUris()) {
    const CacheEntry* entry = lmr.Find(uri);
    std::string line = uri + "|" + entry->resource.class_name() + "|v" +
                       std::to_string(entry->version.origin) + "." +
                       std::to_string(entry->version.seq);
    std::vector<std::string> props;
    for (const rdf::Property& prop : entry->resource.properties()) {
      props.push_back(prop.name + "=" +
                      (prop.value.is_literal() ? "lit:" : "ref:") +
                      prop.value.text());
    }
    std::sort(props.begin(), props.end());
    for (const std::string& prop : props) line += "|" + prop;
    line += "|nsubs=" + std::to_string(entry->matched_subscriptions.size()) +
            "|sr=" + std::to_string(entry->strong_referrers);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string dump;
  for (const std::string& line : lines) dump += line + "\n";
  return dump;
}

// ---- default mode: BENCH_replication.json ----------------------------

/// Quiet asynchronous network: real wire codec, queues and ack protocol
/// (so transport_stats().bytes_sent means something) without injected
/// faults or latency, keeping the timing signal about the protocol.
NetworkOptions QuietAsyncOptions() {
  NetworkOptions options;
  options.asynchronous = true;
  return options;
}

int RunDefault() {
  std::vector<size_t> sizes = {64, 256, 1024};
  if (FullScale()) sizes.push_back(4096);

  std::printf("# replication_bench: full join vs delta catchup\n");
  std::printf("# columns: figure,series,cache_size,value\n");

  for (const size_t docs : sizes) {
    rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
    Network network(QuietAsyncOptions());
    MetadataProvider provider(&schema, &network);
    LocalMetadataRepository replica(1, &schema, &provider, &network);
    BenchMust(replica.Subscribe(kReplRule), "subscribe");
    for (size_t i = 0; i < docs; ++i) {
      BenchCheck(provider.RegisterDocument(MakeReplDoc(i, 128)), "register");
    }
    if (!network.WaitQuiescent()) {
      std::fprintf(stderr, "network did not quiesce after publish\n");
      return 1;
    }

    // Full join: re-ship the entire match set (what a brand-new replica
    // pays), timed end to end over the async transport.
    JoinOptions full;
    full.delta = false;
    const int64_t full_before = network.transport_stats().bytes_sent;
    const double full_ms =
        TimeMs([&] { BenchCheck(replica.JoinReplica(full), "full join"); });
    const int64_t full_bytes =
        network.transport_stats().bytes_sent - full_before;
    std::printf("replication,join_full,%zu,join_ms=%.2f,bytes=%lld\n", docs,
                full_ms, static_cast<long long>(full_bytes));
    BenchRecords().push_back(
        BenchRecord{"replication", "join_full", docs, full_ms, "join_ms",
                    "\"bytes\": " + std::to_string(full_bytes)});

    // Make 1/8 of the documents stale: kTimeToLive drops pushes, so the
    // updates below never reach the replica and its version cursor
    // falls behind on exactly those entries.
    replica.set_consistency_mode(ConsistencyMode::kTimeToLive);
    const size_t stale = docs / 8;
    for (size_t i = 0; i < stale; ++i) {
      BenchCheck(provider.UpdateDocument(MakeReplDoc(i, 130)), "update");
    }
    if (!network.WaitQuiescent()) {
      std::fprintf(stderr, "network did not quiesce after updates\n");
      return 1;
    }
    replica.set_consistency_mode(ConsistencyMode::kNotifications);

    // Delta catchup: the join request carries the per-entry cursor and
    // the MDP ships only the resources whose stamp moved past it.
    const int64_t delta_before = network.transport_stats().bytes_sent;
    const double delta_ms =
        TimeMs([&] { BenchCheck(replica.JoinReplica(), "delta join"); });
    const int64_t delta_bytes =
        network.transport_stats().bytes_sent - delta_before;
    std::printf(
        "replication,catchup_delta,%zu,join_ms=%.2f,bytes=%lld,stale=%zu\n",
        docs, delta_ms, static_cast<long long>(delta_bytes), stale);
    BenchRecords().push_back(
        BenchRecord{"replication", "catchup_delta", docs, delta_ms, "join_ms",
                    "\"bytes\": " + std::to_string(delta_bytes) +
                        ", \"stale_docs\": " + std::to_string(stale)});
    std::fflush(stdout);

    if (delta_bytes >= full_bytes) {
      std::fprintf(stderr,
                   "delta catchup (%lld bytes) not below full snapshot "
                   "(%lld bytes) at %zu documents\n",
                   static_cast<long long>(delta_bytes),
                   static_cast<long long>(full_bytes), docs);
      return 1;
    }
    BenchCheck(replica.AuditCacheInvariants(), "audit");
  }

  WriteBenchJson("BENCH_replication.json");
  return 0;
}

// ---- crash harness ---------------------------------------------------

int RunServe(const std::string& crash_dir) {
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  Network network;
  MetadataProvider provider(&schema, &network);
  wal::WalOptions mdp_options;
  mdp_options.dir = crash_dir + "/mdp";
  BenchCheck(provider.EnableDurability(mdp_options), "EnableDurability");

  wal::WalOptions lmr_options;
  lmr_options.dir = crash_dir + "/lmr";
  std::unique_ptr<LocalMetadataRepository> lmr =
      BenchMust(LocalMetadataRepository::OpenDurable(1, &schema, &provider,
                                                     &network, lmr_options),
                "OpenDurable");
  BenchMust(lmr->Subscribe(kReplRule), "subscribe");

  std::printf("SERVING\n");
  std::fflush(stdout);
  // Register until killed; every tenth document is also updated so the
  // image the recovery phase inherits carries per-resource stamps past
  // seq 1 (the interesting case for the delta cursor). fsync-per-append
  // (the WalOptions default) means everything acknowledged below is on
  // disk when SIGKILL lands.
  for (size_t i = 0; i < 1000000; ++i) {
    BenchCheck(provider.RegisterDocument(MakeReplDoc(i, 128)), "register");
    if (i % 10 == 5) {
      BenchCheck(provider.UpdateDocument(MakeReplDoc(i - 3, 132)), "update");
    }
    if ((i + 1) % 25 == 0) {
      std::printf("registered %zu\n", i + 1);
      std::fflush(stdout);
    }
  }
  return 0;
}

int RunRecover(const std::string& crash_dir) {
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  // Recovery runs on the threaded transport; the serve phase ran on
  // the inline one. Either way the LMR journal holds the frames the
  // link journaled before acking, and the recovered flow state seeds
  // the new link so the revived MDP's sender numbers on from it.
  Network network(QuietAsyncOptions());
  MetadataProvider provider(&schema, &network);
  wal::WalOptions mdp_options;
  mdp_options.dir = crash_dir + "/mdp";
  BenchCheck(provider.EnableDurability(mdp_options), "recover mdp");

  wal::WalOptions lmr_options;
  lmr_options.dir = crash_dir + "/lmr";
  std::unique_ptr<LocalMetadataRepository> revived =
      BenchMust(LocalMetadataRepository::OpenDurable(1, &schema, &provider,
                                                     &network, lmr_options),
                "recover lmr");
  BenchCheck(revived->AuditCacheInvariants(), "audit recovered lmr");
  const size_t replayed = revived->CacheSize();

  // Journal-before-send: the crashed replica may lag the provider but
  // can never have applied something the provider does not know about.
  const std::vector<std::string> truth =
      BenchMust(provider.Browse(kReplRule), "browse");
  std::set<std::string> truth_set(truth.begin(), truth.end());
  for (const std::string& uri : revived->CachedUris()) {
    const CacheEntry* entry = revived->Find(uri);
    if (entry->matched_subscriptions.empty()) continue;  // Strong closure.
    if (truth_set.count(uri) == 0) {
      std::fprintf(stderr, "phantom cache entry after recovery: %s\n",
                   uri.c_str());
      return 1;
    }
  }

  // Delta catchup closes the crash gap; the cursor built from the
  // replayed cache keeps already-held content off the wire.
  const int64_t delta_before = network.transport_stats().bytes_sent;
  BenchCheck(revived->JoinReplica(), "delta catchup");
  const int64_t delta_bytes =
      network.transport_stats().bytes_sent - delta_before;
  BenchCheck(revived->AuditCacheInvariants(), "audit after catchup");

  // A fresh replica joining from nothing pays the full snapshot.
  LocalMetadataRepository fresh(2, &schema, &provider, &network);
  BenchMust(fresh.Subscribe(kReplRule), "subscribe fresh");
  JoinOptions full;
  full.delta = false;
  const int64_t full_before = network.transport_stats().bytes_sent;
  BenchCheck(fresh.JoinReplica(full), "full join fresh");
  const int64_t full_bytes =
      network.transport_stats().bytes_sent - full_before;

  std::printf("recovered: mdp_documents=%zu truth_matches=%zu "
              "replayed_entries=%zu delta_bytes=%lld full_bytes=%lld\n",
              provider.documents().size(), truth_set.size(), replayed,
              static_cast<long long>(delta_bytes),
              static_cast<long long>(full_bytes));

  if (delta_bytes >= full_bytes) {
    std::fprintf(stderr,
                 "delta catchup (%lld bytes) not below a fresh full join "
                 "(%lld bytes)\n",
                 static_cast<long long>(delta_bytes),
                 static_cast<long long>(full_bytes));
    return 1;
  }

  // The revived replica must end byte-identical to the fresh one.
  const std::string revived_dump = DumpCache(*revived);
  const std::string fresh_dump = DumpCache(fresh);
  if (revived_dump != fresh_dump) {
    std::fprintf(stderr,
                 "caches diverged after catchup\n-- revived --\n%s"
                 "-- fresh --\n%s",
                 revived_dump.c_str(), fresh_dump.c_str());
    return 1;
  }
  std::printf("converged: entries=%zu\n", revived->CacheSize());
  return 0;
}

}  // namespace
}  // namespace mdv::bench

int main(int argc, char** argv) {
  std::string crash_dir;
  bool serve = false;
  bool recover = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--crash-dir") == 0 && i + 1 < argc) {
      crash_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else {
      std::fprintf(
          stderr,
          "usage: replication_bench [--crash-dir DIR --serve|--recover]\n");
      return 2;
    }
  }
  if (serve || recover) {
    if (crash_dir.empty() || (serve && recover)) {
      std::fprintf(stderr, "--serve/--recover need --crash-dir DIR\n");
      return 2;
    }
    return serve ? mdv::bench::RunServe(crash_dir)
                 : mdv::bench::RunRecover(crash_dir);
  }
  (void)mdv::bench::ScratchDir;  // Reserved for future journal sweeps.
  return mdv::bench::RunDefault();
}
