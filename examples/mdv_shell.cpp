// Interactive MDV shell: drive a one-provider deployment from the
// command line. Reads commands from stdin (one per line), so it also
// works in pipelines:
//
//   echo 'help' | ./mdv_shell
//
// Commands:
//   subscribe <rule>          register a subscription for the local LMR
//   unsubscribe <id>          drop a subscription
//   register <uri> <xml...>   register an RDF/XML document (single line)
//   update <uri> <xml...>     re-register a document
//   delete <uri>              delete a document
//   query <rule>              query the LMR cache
//   browse <rule>             evaluate a rule at the MDP (no subscription)
//   cache                     list the LMR cache contents
//   docs                      list registered documents
//   stats                     network/filter statistics
//   help / quit

#include <iostream>
#include <sstream>
#include <string>

#include "mdv/system.h"
#include "rdf/parser.h"
#include "rdf/schema.h"
#include "rdf/writer.h"

namespace {

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  subscribe <rule>\n"
      "  unsubscribe <id>\n"
      "  register <uri> <rdf-xml on one line>\n"
      "  update <uri> <rdf-xml on one line>\n"
      "  delete <uri>\n"
      "  query <rule>\n"
      "  browse <rule>\n"
      "  cache | docs | stats | help | quit\n";
}

}  // namespace

int main() {
  mdv::MdvSystem system(mdv::rdf::MakeObjectGlobeSchema());
  mdv::MetadataProvider* provider = system.AddProvider();
  mdv::LocalMetadataRepository* lmr = system.AddRepository(provider);

  std::cout << "MDV shell — ObjectGlobe schema loaded (CycleProvider, "
               "ServerInformation). Type 'help'.\n";

  std::string line;
  while (std::cout << "mdv> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream ss(line);
    std::string command;
    ss >> command;
    std::string rest;
    std::getline(ss, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());

    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "subscribe") {
      mdv::Result<mdv::pubsub::SubscriptionId> id = lmr->Subscribe(rest);
      if (id.ok()) {
        std::cout << "subscription " << *id << " registered; cache now "
                  << lmr->CacheSize() << " resources\n";
      } else {
        std::cout << "error: " << id.status() << "\n";
      }
    } else if (command == "unsubscribe") {
      std::istringstream arg(rest);
      int64_t id = 0;
      if (!(arg >> id)) {
        std::cout << "usage: unsubscribe <id>\n";
        continue;
      }
      mdv::Status st = lmr->Unsubscribe(id);
      std::cout << (st.ok() ? "ok\n" : st.ToString() + "\n");
    } else if (command == "register" || command == "update") {
      std::istringstream arg(rest);
      std::string uri;
      arg >> uri;
      std::string xml;
      std::getline(arg, xml);
      mdv::Status st = command == "register"
                           ? provider->RegisterDocumentXml(xml, uri)
                           : [&] {
                               mdv::Result<mdv::rdf::RdfDocument> doc =
                                   mdv::rdf::ParseRdfXml(xml, uri);
                               if (!doc.ok()) return doc.status();
                               return provider->UpdateDocument(*doc);
                             }();
      std::cout << (st.ok() ? "ok; cache now " +
                                  std::to_string(lmr->CacheSize()) +
                                  " resources\n"
                            : st.ToString() + "\n");
    } else if (command == "delete") {
      mdv::Status st = provider->DeleteDocument(rest);
      std::cout << (st.ok() ? "ok\n" : st.ToString() + "\n");
    } else if (command == "query") {
      mdv::Result<std::vector<mdv::QueryMatch>> result = lmr->Query(rest);
      if (!result.ok()) {
        std::cout << "error: " << result.status() << "\n";
        continue;
      }
      for (const mdv::QueryMatch& match : *result) {
        std::cout << "  " << match.uri_reference << "\n";
      }
      std::cout << result->size() << " match(es)\n";
    } else if (command == "browse") {
      mdv::Result<std::vector<std::string>> result = provider->Browse(rest);
      if (!result.ok()) {
        std::cout << "error: " << result.status() << "\n";
        continue;
      }
      for (const std::string& uri : *result) {
        std::cout << "  " << uri << "\n";
      }
      std::cout << result->size() << " match(es)\n";
    } else if (command == "cache") {
      for (const std::string& uri : lmr->CachedUris()) {
        const mdv::CacheEntry* entry = lmr->Find(uri);
        std::cout << "  " << uri << " [" << entry->resource.class_name()
                  << "] matches=" << entry->matched_subscriptions.size()
                  << " strong_refs=" << entry->strong_referrers
                  << (entry->local ? " local" : "") << "\n";
      }
      std::cout << lmr->CacheSize() << " resource(s) cached\n";
    } else if (command == "docs") {
      for (const std::string& uri : provider->documents().DocumentUris()) {
        std::cout << "  " << uri << " ("
                  << provider->documents().Find(uri)->NumResources()
                  << " resources)\n";
      }
    } else if (command == "stats") {
      const mdv::NetworkStats& net = system.network().stats();
      std::cout << "network: " << net.messages << " messages, "
                << net.resources_shipped << " resources shipped\n"
                << "rule base: " << provider->rule_store().NumAtomicRules()
                << " atomic rules, " << provider->rule_store().NumGroups()
                << " groups\n"
                << "database rows: " << provider->database().TotalRows()
                << "\n";
    } else {
      std::cout << "unknown command '" << command << "' (try 'help')\n";
    }
  }
  return 0;
}
