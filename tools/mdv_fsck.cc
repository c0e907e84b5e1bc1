// mdv_fsck: offline integrity checker for MDV durability images.
//
// Points at one or more WAL directories (as written by
// MetadataProvider::EnableDurability and LocalMetadataRepository::
// OpenDurable), loads each recovered image read-only — nothing is
// truncated, pruned or rewritten — and runs the invariant auditors
// over the result:
//
//   wal.chain            manifest/snapshot/segment chain integrity:
//                        no mid-chain corruption, no torn tail
//   recovery.load        snapshot + log suffix replay to a live image
//   rdbms.invariants     Table/index parity (Database::CheckInvariants)
//   filter.consistency   rule graph vs tables vs PredicateIndex
//                        (RuleStore::CheckConsistency)
//   subscriptions.rules  every subscription's end rule exists in the
//                        rule store                          [mdp only]
//   lmr.cache            cache reference counts and GC invariants
//                        (AuditCacheInvariants)              [lmr only]
//   lmr.flows            persisted dedup flows are monotonic: held-back
//                        sequences lie above applied_through [lmr only]
//   lmr.versions         the persisted version vector covers every
//                        persisted cache entry's stamp — a regressed
//                        vector would make delta catchup skip content
//                        the replica does not have          [lmr only]
//   mdp.peers            journaled peer-mesh records decode  [mdp only]
//
// Usage: mdv_fsck [--json] [--mdp DIR]... [--lmr DIR]... [DIR]...
//
// Bare DIR arguments are dispatched by the kind recorded in their
// MANIFEST. With --json, stdout carries one machine-readable object:
//   {"images": [{"path": ..., "kind": ..., "checks":
//       [{"name": ..., "ok": true|false, "detail": ...}, ...]}, ...],
//    "ok": true|false}
//
// Exit status: 0 = all checks passed, 1 = at least one check failed,
// 2 = usage/IO problems (unreadable directory, unknown manifest kind).

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "mdv/lmr.h"
#include "mdv/metadata_provider.h"
#include "mdv/network.h"
#include "mdv/wal_records.h"
#include "rdf/schema_io.h"
#include "wal/log.h"
#include "wal/record.h"

namespace {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct ImageReport {
  std::string path;
  std::string kind;
  std::vector<Check> checks;

  void Add(const std::string& name, const mdv::Status& status) {
    checks.push_back(Check{name, status.ok(),
                           status.ok() ? "" : status.ToString()});
  }
  void Add(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  bool AllOk() const {
    for (const Check& check : checks) {
      if (!check.ok) return false;
    }
    return true;
  }
};

/// Chain-integrity verdict shared by both image kinds: Open() already
/// walked MANIFEST → snapshot → segments; anything it had to skip or
/// flag shows up in the RecoveryInfo.
void CheckWalChain(const mdv::wal::RecoveryInfo& rec, ImageReport* report) {
  std::string detail;
  bool ok = true;
  for (const std::string& error : rec.segment_errors) {
    ok = false;
    if (!detail.empty()) detail += "; ";
    detail += error;
  }
  if (!rec.tail_error.empty()) {
    ok = false;
    if (!detail.empty()) detail += "; ";
    detail += "torn tail (" + rec.tail_error + ", " +
              std::to_string(rec.truncated_tail_bytes) + " bytes)";
  }
  report->Add("wal.chain", ok, detail);
}

mdv::Status CheckMdpImage(const std::string& dir,
                          const mdv::wal::Manifest& manifest,
                          ImageReport* report) {
  MDV_ASSIGN_OR_RETURN(mdv::rdf::RdfSchema schema,
                       mdv::rdf::ParseSchemaText(manifest.schema_text));
  mdv::Network network;  // No LMRs attached: replay deliveries fall
                         // into the void by design.
  mdv::filter::RuleStoreOptions rule_options;
  rule_options.num_shards = static_cast<int>(manifest.num_shards);
  mdv::MetadataProvider provider(&schema, &network, rule_options);

  mdv::wal::WalOptions options;
  options.dir = dir;
  options.read_only = true;
  const mdv::Status loaded = provider.EnableDurability(options);
  report->Add("recovery.load", loaded);
  if (!loaded.ok()) return mdv::Status::OK();  // Reported as a failed check.
  CheckWalChain(provider.recovery_info(), report);

  report->Add("rdbms.invariants", provider.database().CheckInvariants());
  report->Add("filter.consistency", provider.rule_store().CheckConsistency());

  mdv::Status subs = mdv::Status::OK();
  for (const mdv::pubsub::Subscription* sub :
       provider.subscriptions().All()) {
    mdv::Result<std::string> type =
        provider.rule_store().RuleTypeOf(sub->end_rule_id);
    if (!type.ok()) {
      subs = mdv::Status::Internal(
          "subscription " + std::to_string(sub->id) + " end rule " +
          std::to_string(sub->end_rule_id) + ": " + type.status().ToString());
      break;
    }
  }
  report->Add("subscriptions.rules", subs);

  // Replication-mesh journal records (kWalMdpAddPeer) must decode; the
  // recovered names are what deployment code re-wires the mesh from.
  mdv::Status peers = mdv::Status::OK();
  for (const mdv::wal::WalRecord& record :
       provider.recovery_info().records) {
    if (record.type != mdv::kWalMdpAddPeer) continue;
    mdv::wal::PayloadReader reader(record.payload);
    const std::string name = reader.ReadString().value_or("");
    if (reader.failed() || !reader.Done() || name.empty()) {
      peers = mdv::Status::Internal("malformed peer-mesh record");
      break;
    }
  }
  std::string peer_detail;
  for (const std::string& name : provider.recovered_peer_names()) {
    if (!peer_detail.empty()) peer_detail += ", ";
    peer_detail += name;
  }
  if (peers.ok()) {
    report->Add("mdp.peers", true, peer_detail);
  } else {
    report->Add("mdp.peers", peers);
  }
  return mdv::Status::OK();
}

/// Walks the snapshot's persisted flow records: every held-back
/// sequence must lie strictly above the flow's applied_through (a
/// violation means dedup state that would re-apply or drop frames).
mdv::Status CheckLmrFlows(const mdv::wal::RecoveryInfo& rec) {
  const mdv::wal::WalScan scan = mdv::wal::ScanWalBuffer(rec.snapshot);
  if (scan.torn) {
    return mdv::Status::Internal("corrupt snapshot: " + scan.tail_error);
  }
  for (const mdv::wal::WalRecord& record : scan.records) {
    if (record.type != mdv::kWalLmrSnapFlow) continue;
    mdv::wal::PayloadReader reader(record.payload);
    const uint64_t sender = reader.ReadU64().value_or(0);
    const uint64_t applied_through = reader.ReadU64().value_or(0);
    const uint32_t held = reader.ReadU32().value_or(0);
    for (uint32_t i = 0; i < held && !reader.failed(); ++i) {
      const uint64_t sequence = reader.ReadU64().value_or(0);
      (void)reader.ReadString();
      if (sequence <= applied_through) {
        return mdv::Status::Internal(
            "flow from sender " + std::to_string(sender) +
            ": held-back sequence " + std::to_string(sequence) +
            " not above applied_through " + std::to_string(applied_through));
      }
    }
    if (reader.failed()) {
      return mdv::Status::Internal("malformed flow record from sender " +
                                   std::to_string(sender));
    }
  }
  return mdv::Status::OK();
}

/// Checks the persisted version vector against the persisted cache
/// entries, on the RAW snapshot records. The live image cannot be used
/// for this: recovery max-merges every loaded stamp back into the
/// vector, silently repairing exactly the regression this check exists
/// to catch.
mdv::Status CheckLmrVersions(const mdv::wal::RecoveryInfo& rec) {
  const mdv::wal::WalScan scan = mdv::wal::ScanWalBuffer(rec.snapshot);
  if (scan.torn) {
    return mdv::Status::Internal("corrupt snapshot: " + scan.tail_error);
  }
  std::map<uint64_t, uint64_t> vector;
  // (uri, origin, seq) of every versioned persisted entry.
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> stamps;
  for (const mdv::wal::WalRecord& record : scan.records) {
    mdv::wal::PayloadReader reader(record.payload);
    if (record.type == mdv::kWalLmrSnapVersionVector) {
      const uint32_t count = reader.ReadU32().value_or(0);
      for (uint32_t i = 0; i < count && !reader.failed(); ++i) {
        const uint64_t origin = reader.ReadU64().value_or(0);
        vector[origin] = reader.ReadU64().value_or(0);
      }
      if (reader.failed()) {
        return mdv::Status::Internal("malformed version-vector record");
      }
    } else if (record.type == mdv::kWalLmrSnapCacheEntry) {
      const std::string uri = reader.ReadString().value_or("");
      (void)reader.ReadU8();  // local flag
      const uint32_t nsubs = reader.ReadU32().value_or(0);
      for (uint32_t i = 0; i < nsubs && !reader.failed(); ++i) {
        (void)reader.ReadI64();
      }
      const uint64_t origin = reader.ReadU64().value_or(0);
      const uint64_t seq = reader.ReadU64().value_or(0);
      if (reader.failed()) {
        return mdv::Status::Internal("malformed cache entry record");
      }
      if (origin != 0 || seq != 0) stamps.emplace_back(uri, origin, seq);
    }
  }
  for (const auto& [uri, origin, seq] : stamps) {
    const auto it = vector.find(origin);
    if (it == vector.end() || it->second < seq) {
      return mdv::Status::Internal(
          "persisted version vector regresses against cache entry " + uri +
          " (origin " + std::to_string(origin) + " seq " +
          std::to_string(seq) + ", vector has " +
          (it == vector.end() ? std::string("nothing")
                              : std::to_string(it->second)) +
          ")");
    }
  }
  return mdv::Status::OK();
}

mdv::Status CheckLmrImage(const std::string& dir,
                          const mdv::wal::Manifest& manifest,
                          ImageReport* report) {
  MDV_ASSIGN_OR_RETURN(mdv::rdf::RdfSchema schema,
                       mdv::rdf::ParseSchemaText(manifest.schema_text));
  mdv::Network network;  // Local stand-in; the LMR never talks to it.
  mdv::wal::WalOptions options;
  options.dir = dir;
  options.read_only = true;
  mdv::Result<std::unique_ptr<mdv::LocalMetadataRepository>> lmr =
      mdv::LocalMetadataRepository::OpenDurable(/*id=*/1, &schema,
                                                /*provider=*/nullptr,
                                                &network, options);
  report->Add("recovery.load", lmr.ok()
                                   ? mdv::Status::OK()
                                   : lmr.status());
  if (!lmr.ok()) return mdv::Status::OK();
  const mdv::wal::RecoveryInfo rec = (*lmr)->recovery_info();
  CheckWalChain(rec, report);
  report->Add("lmr.cache", (*lmr)->AuditCacheInvariants());
  report->Add("lmr.flows", CheckLmrFlows(rec));
  report->Add("lmr.versions", CheckLmrVersions(rec));
  return mdv::Status::OK();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintJson(const std::vector<ImageReport>& reports, bool all_ok) {
  std::cout << "{\"images\": [";
  for (size_t i = 0; i < reports.size(); ++i) {
    const ImageReport& report = reports[i];
    if (i > 0) std::cout << ", ";
    std::cout << "{\"path\": \"" << JsonEscape(report.path) << "\", \"kind\": \""
              << JsonEscape(report.kind) << "\", \"checks\": [";
    for (size_t j = 0; j < report.checks.size(); ++j) {
      const Check& check = report.checks[j];
      if (j > 0) std::cout << ", ";
      std::cout << "{\"name\": \"" << JsonEscape(check.name)
                << "\", \"ok\": " << (check.ok ? "true" : "false")
                << ", \"detail\": \"" << JsonEscape(check.detail) << "\"}";
    }
    std::cout << "]}";
  }
  std::cout << "], \"ok\": " << (all_ok ? "true" : "false") << "}\n";
}

void PrintText(const std::vector<ImageReport>& reports) {
  for (const ImageReport& report : reports) {
    std::cout << report.path << " (" << report.kind << ")\n";
    for (const Check& check : report.checks) {
      std::cout << "  " << check.name << ": "
                << (check.ok ? "OK" : "FAIL");
      if (!check.detail.empty()) std::cout << " — " << check.detail;
      std::cout << "\n";
    }
  }
}

int Usage() {
  std::cerr << "usage: mdv_fsck [--json] [--mdp DIR]... [--lmr DIR]... "
               "[DIR]...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  // (path, forced kind): "" = dispatch by manifest.
  std::vector<std::pair<std::string, std::string>> targets;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--mdp" || arg == "--lmr") {
      if (i + 1 >= argc) return Usage();
      targets.emplace_back(argv[++i], arg.substr(2));
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      targets.emplace_back(arg, "");
    }
  }
  if (targets.empty()) return Usage();

  std::vector<ImageReport> reports;
  for (const auto& [dir, forced_kind] : targets) {
    ImageReport report;
    report.path = dir;
    mdv::Result<mdv::wal::Manifest> manifest = mdv::wal::LoadManifest(dir);
    if (!manifest.ok()) {
      std::cerr << "mdv_fsck: " << dir << ": "
                << manifest.status().ToString() << "\n";
      return 2;
    }
    report.kind = manifest->kind;
    if (!forced_kind.empty() && manifest->kind != forced_kind) {
      std::cerr << "mdv_fsck: " << dir << ": manifest kind is '"
                << manifest->kind << "', not '" << forced_kind << "'\n";
      return 2;
    }
    mdv::Status checked;
    if (manifest->kind == "mdp") {
      checked = CheckMdpImage(dir, *manifest, &report);
    } else if (manifest->kind == "lmr") {
      checked = CheckLmrImage(dir, *manifest, &report);
    } else {
      std::cerr << "mdv_fsck: " << dir << ": unknown manifest kind '"
                << manifest->kind << "'\n";
      return 2;
    }
    if (!checked.ok()) {
      std::cerr << "mdv_fsck: " << dir << ": " << checked.ToString() << "\n";
      return 2;
    }
    reports.push_back(std::move(report));
  }

  bool all_ok = true;
  for (const ImageReport& report : reports) {
    if (!report.AllOk()) all_ok = false;
  }
  if (json) {
    PrintJson(reports, all_ok);
  } else {
    PrintText(reports);
    std::cout << (all_ok ? "clean" : "CORRUPT") << "\n";
  }
  return all_ok ? 0 : 1;
}
