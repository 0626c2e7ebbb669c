"""Bootstrap new connection phrases from the graph we already trust.

Extraction starts from a single hand-picked phrase ("and"). After each
expansion pass, the miner issues one query per known relation asking for
both names together, collects whatever text sits between the two mentions,
and scores each phrase by occurrences x distinct pairs x distinct domains
squared. Phrases that clear the bar join the pattern set; queryable ones
also start driving their own connectivity queries, which can reach people
the seed phrase alone never surfaces.

Here a theatre troupe is chained together by "and" snippets, but the same
troupe is also covered by "performs beside" reviews, and two guest artists
appear in those reviews only. Mining has to discover the second phrase
before the guests become reachable.
"""

from snipgraph.catalog import EntityCatalog
from snipgraph.engine import RunConfig, expand_with_pattern_mining
from snipgraph.search import CorpusRecord, ReplayBackend, SearchGateway

troupe = ["Alda Veil", "Borin Veil", "Cela Veil", "Doran Veil",
          "Edda Veil", "Floro Veil"]
guests = ["Vela Umbra", "Wren Umbra"]

records: list[CorpusRecord] = []
serial = 0

def snippet(text: str, domain: str) -> None:
    global serial
    serial += 1
    records.append(CorpusRecord(f"https://{domain}/p{serial}", domain, text))

# the troupe chain, written with the seed phrase (twice per pair: one
# mention is never enough evidence)
for a, b in zip(troupe, troupe[1:]):
    snippet(f"opening night {a} and {b} on stage", "gazette.example")
    snippet(f"{a} and {b} at the gala", "herald.example")

# the same pairs in review prose, spread over three outlets
review_domains = ["stagebill.example", "nightly.example", "critique.example"]
for i, (a, b) in enumerate(zip(troupe, troupe[1:])):
    for j in range(2):
        snippet(f"in act two {a} performs beside {b} to great applause",
                review_domains[(i + j) % 3])

# the guests exist only in review prose
snippet(f"{troupe[-1]} performs beside {guests[0]} in the finale",
        "stagebill.example")
snippet(f"{troupe[-1]} performs beside {guests[0]} again on tour",
        "nightly.example")
snippet(f"{guests[0]} performs beside {guests[1]} for the encore",
        "critique.example")
snippet(f"{guests[0]} performs beside {guests[1]} one last time",
        "stagebill.example")

# distractor phrases: heavy but confined to one pair and one outlet, or
# simply rare; neither should clear the admission bar
for _ in range(5):
    snippet(f"{troupe[0]} alongside {troupe[1]} backstage", "fanzine.example")
snippet(f"{troupe[2]} signs autographs near {troupe[3]}", "fanzine.example")

catalog = EntityCatalog()
for name in troupe + guests:
    catalog.add(name)

config = RunConfig(seeds=(troupe[0],), query_patterns=("and",),
                   match_patterns=(), mode="pattern-iter")
gateway = SearchGateway(ReplayBackend(records))

graph, report, patterns = expand_with_pattern_mining(config, gateway, catalog)

print(f"corpus: {len(records)} snippets, seed phrase: \"and\"\n")
for record in report.iterations:
    print(f"iteration {record.index}: expanded {len(record.steps)} entities, "
          f"{record.pair_queries_issued} pair queries")
    for cand in record.candidates:
        print(f"  candidate {cand.phrase!r:<26} n={cand.n:<3} m={cand.m:<2} "
              f"d={cand.d}  score={cand.score}")
    if record.admitted:
        print(f"  admitted: {record.admitted}")
    else:
        print("  admitted: nothing new, stopping")
    print(f"  graph now {record.node_count} nodes / {record.edge_count} edges\n")

print(f"stopped: {report.stopped_reason} after {len(report.iterations)} iterations")
print(f"pattern set: {patterns}")

# the guests were invisible to the seed phrase
for guest in guests:
    status = "reachable" if graph.has_node(guest) else "missing"
    print(f"{guest}: {status}")
print(f"\n{guests[0]} -- {guests[1]} weight: "
      f"{graph.weight(guests[0], guests[1])}")
