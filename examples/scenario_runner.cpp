// scenario_runner — drive the MASC/BGMP architecture from a scenario
// script, for exploring topologies and failure cases without writing C++.
//
// Usage: scenario_runner [script.msc] [--metrics-out FILE]
//                        [--metrics-every SECONDS] [--metrics-jsonl FILE]
//                        [--records-out FILE] [--profile-steps]
//                        [--trace-level info|debug]
//
// Runs a built-in demo when no script is given. --metrics-out writes the
// end-of-run metrics snapshot (every counter, gauge and histogram the
// stack registered, stamped with the final simulation time) as JSON.
// --metrics-every samples a snapshot every SECONDS of simulated time while
// the scenario settles, appending each as one line of the JSONL time
// series --metrics-jsonl (default metrics.jsonl). --records-out streams
// the network's record stream as JSONL: every causal message span (one
// JSON object per send/deliver/hold/drop, keyed by trace id) and the log
// lines --trace-level lets through. --profile-steps records wall-clock
// event-handler durations into per-tag sim.step_wall_seconds.*
// histograms. --trace-level raises the log level (default off); log lines
// also print to stderr.
//
// Script language (one command per line, '#' comments):
//
//   domain <name> [migp=dvmrp|pim-dm|pim-sm|cbt|mospf] [borders=N]
//   link <a> <b> [rel=lateral|customer|provider] [aborder=N] [bborder=N]
//   masc-parent <child> <parent>        masc-siblings <a> <b>
//   spaces <domain>                     # top level: claim from 224/4
//   announce <domain>                   # originate its unicast prefix
//   request <domain> <addresses>        # MASC space request
//   originate <domain> <prefix>         # inject a group range directly
//   settle                              # run simulated time to quiescence
//   join <domain> <group> [router]      leave <domain> <group> [router]
//   send <domain> <group>               # one packet from a host
//   branch <domain> <source-domain> <group>
//   link-down <a> <b>                   link-up <a> <b>
//   show-tree <group>                   show-grib <domain>
//   show-pool <domain>
//   expect <domain> <copies> [hops]     # assert on the last send
//
// `rel` is the relationship of <b> as seen from <a> ("customer" = b is a's
// customer). Exits non-zero on a failed `expect` — usable as a test.
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"

namespace {

using core::Domain;
using core::Group;

struct Scenario {
  core::Internet net;
  std::map<std::string, Domain*> domains;
  std::map<const Domain*, std::vector<int>> last_send;
  bgp::DomainId next_id = 1;
  int failures = 0;
  /// --metrics-every: snapshot period in simulated time (0 = off) and the
  /// JSONL stream the periodic snapshots append to.
  net::SimTime metrics_every = net::SimTime::nanoseconds(0);
  std::ostream* metrics_series = nullptr;
  net::SimTime next_sample = net::SimTime::nanoseconds(0);

  Scenario() {
    net.set_delivery_observer([this](const core::Delivery& d) {
      last_send[d.domain].push_back(d.hops);
    });
  }

  Domain& domain(const std::string& name) {
    const auto it = domains.find(name);
    if (it == domains.end()) {
      throw std::runtime_error("unknown domain '" + name + "'");
    }
    return *it->second;
  }

  /// Runs to quiescence; with --metrics-every active, pauses on the
  /// sampling grid and appends a snapshot line per period crossed.
  void settle() {
    if (metrics_every.ns() <= 0 || metrics_series == nullptr) {
      net.settle();
      return;
    }
    if (next_sample <= net.events().now()) {
      next_sample = net.events().now() + metrics_every;
    }
    while (!net.events().empty()) {
      net.run_until(next_sample);
      net.metrics_snapshot().write_jsonl(*metrics_series);
      next_sample = next_sample + metrics_every;
    }
  }
};

std::map<std::string, std::string> keyword_args(
    const std::vector<std::string>& words, std::size_t from) {
  std::map<std::string, std::string> out;
  for (std::size_t i = from; i < words.size(); ++i) {
    const auto eq = words[i].find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("expected key=value, got '" + words[i] + "'");
    }
    out[words[i].substr(0, eq)] = words[i].substr(eq + 1);
  }
  return out;
}

bgp::Relationship parse_rel(const std::string& text) {
  if (text == "lateral") return bgp::Relationship::kLateral;
  if (text == "customer") return bgp::Relationship::kCustomer;
  if (text == "provider") return bgp::Relationship::kProvider;
  throw std::runtime_error("bad relationship '" + text + "'");
}

std::string target_name(const bgmp::TargetKey& t) {
  return t.kind == bgmp::TargetKey::Kind::kMigp ? "MIGP" : t.peer->name();
}

void run_command(Scenario& s, const std::vector<std::string>& words) {
  const std::string& cmd = words[0];
  if (cmd == "domain") {
    const auto kw = keyword_args(words, 2);
    Domain::Config config;
    config.id = s.next_id++;
    config.name = words[1];
    if (const auto it = kw.find("migp"); it != kw.end()) {
      config.protocol = migp::parse_protocol(it->second);
    }
    if (const auto it = kw.find("borders"); it != kw.end()) {
      const auto n = static_cast<std::size_t>(std::stoul(it->second));
      topology::Graph mesh(n);
      for (topology::NodeId i = 0; i < n; ++i) {
        for (topology::NodeId j = i + 1; j < n; ++j) mesh.add_edge(i, j);
      }
      config.internal_graph = std::move(mesh);
      config.borders.clear();
      for (std::size_t i = 0; i < n; ++i) {
        config.borders.push_back(static_cast<migp::RouterId>(i));
      }
    }
    s.domains[words[1]] = &s.net.add_domain(std::move(config));
  } else if (cmd == "link") {
    const auto kw = keyword_args(words, 3);
    bgp::Relationship rel = bgp::Relationship::kLateral;
    std::size_t aborder = 0;
    std::size_t bborder = 0;
    if (const auto it = kw.find("rel"); it != kw.end()) {
      rel = parse_rel(it->second);
    }
    if (const auto it = kw.find("aborder"); it != kw.end()) {
      aborder = std::stoul(it->second);
    }
    if (const auto it = kw.find("bborder"); it != kw.end()) {
      bborder = std::stoul(it->second);
    }
    s.net.link(s.domain(words[1]), s.domain(words[2]), rel, aborder,
               bborder);
  } else if (cmd == "masc-parent") {
    s.net.masc_parent(s.domain(words[1]), s.domain(words[2]));
  } else if (cmd == "masc-siblings") {
    s.net.masc_siblings(s.domain(words[1]), s.domain(words[2]));
  } else if (cmd == "spaces") {
    s.domain(words[1]).masc_node().set_spaces({net::multicast_space()});
  } else if (cmd == "announce") {
    s.domain(words[1]).announce_unicast();
  } else if (cmd == "request") {
    s.domain(words[1]).masc_node().request_space(std::stoull(words[2]));
  } else if (cmd == "originate") {
    s.domain(words[1]).originate_group_range(net::Prefix::parse(words[2]));
  } else if (cmd == "settle") {
    s.settle();
  } else if (cmd == "join" || cmd == "leave") {
    const Group group = net::Ipv4Addr::parse(words[2]);
    const migp::RouterId at =
        words.size() > 3 ? static_cast<migp::RouterId>(std::stoul(words[3]))
                         : 0;
    if (cmd == "join") {
      s.domain(words[1]).host_join(group, at);
    } else {
      s.domain(words[1]).host_leave(group, at);
    }
  } else if (cmd == "send") {
    s.last_send.clear();
    s.domain(words[1]).send(net::Ipv4Addr::parse(words[2]));
    s.settle();
  } else if (cmd == "branch") {
    s.domain(words[1]).build_source_branch(
        s.domain(words[2]).host_address(1), net::Ipv4Addr::parse(words[3]));
  } else if (cmd == "link-down" || cmd == "link-up") {
    s.net.set_link_state(s.domain(words[1]), s.domain(words[2]),
                         cmd == "link-up");
  } else if (cmd == "show-tree") {
    const Group group = net::Ipv4Addr::parse(words[1]);
    std::cout << "(*,G) entries for " << words[1] << ":\n";
    for (const auto& [name, domain] : s.domains) {
      for (std::size_t b = 0; b < domain->border_count(); ++b) {
        const bgmp::GroupEntry* entry =
            domain->bgmp_router(b).star_entry(group);
        if (entry == nullptr) continue;
        std::cout << "  " << domain->bgmp_router(b).name() << ": parent="
                  << (entry->parent ? target_name(*entry->parent) : "-")
                  << " children={";
        bool first = true;
        for (const auto& [child, refs] : entry->children) {
          (void)refs;
          std::cout << (first ? "" : ", ") << target_name(child);
          first = false;
        }
        std::cout << "}\n";
      }
    }
  } else if (cmd == "show-grib") {
    Domain& d = s.domain(words[1]);
    std::cout << "G-RIB at " << words[1] << ":";
    for (const auto& [prefix, route] :
         d.speaker().rib(bgp::RouteType::kGroup).best_routes()) {
      std::cout << " " << prefix.to_string() << "(AS" << route.origin_as
                << ")";
    }
    std::cout << "\n";
  } else if (cmd == "show-pool") {
    Domain& d = s.domain(words[1]);
    std::cout << "MASC pool at " << words[1] << ":";
    for (const masc::ClaimedPrefix& p :
         d.masc_node().pool().prefixes()) {
      std::cout << " " << p.prefix.to_string()
                << (p.active ? "" : "(draining)");
    }
    std::cout << "\n";
  } else if (cmd == "expect") {
    Domain& d = s.domain(words[1]);
    const int want_copies = std::stoi(words[2]);
    const auto& got = s.last_send[&d];
    bool ok = static_cast<int>(got.size()) == want_copies;
    if (ok && words.size() > 3 && want_copies > 0) {
      ok = got[0] == std::stoi(words[3]);
    }
    std::cout << (ok ? "  OK   " : "  FAIL ") << words[1] << ": "
              << got.size() << " copies";
    if (!got.empty()) std::cout << ", " << got[0] << " hops";
    std::cout << "\n";
    if (!ok) ++s.failures;
  } else {
    throw std::runtime_error("unknown command '" + cmd + "'");
  }
}

const char* kDemoScript = R"(
# Built-in demo: a diamond with a failure and repair.
domain root
domain left
domain right
domain member
link root left
link root right
link left member
link right member
originate root 224.0.128.0/24
announce root
settle
join member 224.0.128.1
settle
show-tree 224.0.128.1
send root 224.0.128.1
expect member 1 2
link-down left member
link-down right member
settle
send root 224.0.128.1
expect member 0
link-up left member
link-up right member
settle
leave member 224.0.128.1
settle
join member 224.0.128.1
settle
send root 224.0.128.1
expect member 1 2
)";

}  // namespace

int main(int argc, char** argv) {
  std::string script_path;
  std::string metrics_out;
  std::string metrics_jsonl = "metrics.jsonl";
  std::string records_out;
  std::string trace_level;
  double metrics_every = 0.0;
  bool profile_steps = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--metrics-every") {
      metrics_every = std::stod(next());
      if (metrics_every <= 0.0) {
        std::cerr << "--metrics-every needs a positive period\n";
        return 1;
      }
    } else if (arg == "--metrics-jsonl") {
      metrics_jsonl = next();
    } else if (arg == "--records-out") {
      records_out = next();
    } else if (arg == "--profile-steps") {
      profile_steps = true;
    } else if (arg == "--trace-level") {
      trace_level = next();
    } else {
      script_path = arg;
    }
  }

  obs::Level level = obs::Level::kOff;
  if (trace_level == "info") {
    level = obs::Level::kInfo;
  } else if (trace_level == "debug") {
    level = obs::Level::kDebug;
  } else if (!trace_level.empty()) {
    std::cerr << "bad --trace-level '" << trace_level << "'\n";
    return 1;
  }
  // Declared before the scenario: the stream writes into it until the
  // network dies.
  std::ofstream records_file;
  if (!records_out.empty()) {
    records_file.open(records_out);
    if (!records_file) {
      std::cerr << "cannot open " << records_out << "\n";
      return 1;
    }
  }

  std::istringstream demo(kDemoScript);
  std::ifstream file;
  std::istream* in = &demo;
  if (!script_path.empty()) {
    file.open(script_path);
    if (!file) {
      std::cerr << "cannot open " << script_path << "\n";
      return 1;
    }
    in = &file;
  }
  Scenario scenario;
  obs::Stream& stream = scenario.net.network().stream();
  stream.set_level(level);
  if (records_file.is_open()) {
    stream.add_sink(std::make_shared<obs::JsonlSink>(records_file));
    stream.set_span_rate(1.0);
  }
  std::ofstream series_file;
  if (metrics_every > 0.0) {
    series_file.open(metrics_jsonl);
    if (!series_file) {
      std::cerr << "cannot open " << metrics_jsonl << "\n";
      return 1;
    }
    scenario.metrics_every = net::SimTime::seconds_f(metrics_every);
    scenario.metrics_series = &series_file;
  }
  if (profile_steps) scenario.net.enable_step_profiling();
  std::string line;
  int line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::vector<std::string> words;
    std::string word;
    while (fields >> word) words.push_back(word);
    if (words.empty()) continue;
    try {
      run_command(scenario, words);
    } catch (const std::exception& error) {
      std::cerr << "line " << line_no << ": " << error.what() << "\n";
      return 1;
    }
  }
  if (scenario.metrics_series != nullptr) {
    // Final sample, so the series always covers the end of the run.
    scenario.net.metrics_snapshot().write_jsonl(*scenario.metrics_series);
    std::cout << "(metrics time series written to " << metrics_jsonl
              << ")\n";
  }
  if (records_file.is_open()) {
    std::cout << "(records written to " << records_out << ")\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "cannot open " << metrics_out << "\n";
      return 1;
    }
    scenario.net.metrics_snapshot().write_json(out);
    std::cout << "(metrics snapshot written to " << metrics_out << ")\n";
  }
  if (scenario.failures > 0) {
    std::cerr << scenario.failures << " expectation(s) failed\n";
    return 1;
  }
  return 0;
}
