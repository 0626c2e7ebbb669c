"""Profile a recovered graph and characterize its connection phrases.

Two questions about a finished extraction: what does the graph look like
(degree and weight distributions), and what kind of relations did each
phrase family capture? For the second we stem the phrase vocabulary into
terms, tally term counts per relation category, and rank terms by
pointwise mutual information with each category. Terms with high MI are
the ones that tell the categories apart; shared filler scores near zero.
The term statistics live beside this script, in terms.py.
"""

from snipgraph.analysis import summarize, top_relations
from snipgraph.corpus import synthesize
from terms import build_term_category_table, mutual_information, top_terms

# --- shape of an extracted graph -------------------------------------------

corpus = synthesize(n_nodes=60, attach=2, weight_low=1, weight_high=5,
                    exponent=1.2, seed=29)
graph = corpus.truth_graph()

degree_summary, weight_summary = summarize(graph)
print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")
print(f"degree: mean={degree_summary.mean:.2f} "
      f"sd={degree_summary.standard_deviation:.2f} "
      f"median={degree_summary.median:g}")
print(f"weight: mean={weight_summary.mean:.2f} "
      f"sd={weight_summary.standard_deviation:.2f} "
      f"median={weight_summary.median:g}")

# preferential attachment concentrates edges on a few early nodes, so the
# degree histogram has a long thin tail
print("\ndegree histogram:")
for value in sorted(degree_summary.histogram):
    bar = "#" * degree_summary.histogram[value]
    print(f"  {value:>3} {bar}")

print("\nstrongest relations:")
for a, b, w in top_relations(graph, 3):
    print(f"  {a} -- {b} ({w})")

# --- which terms mark which relation category ------------------------------

# connection phrases observed per category, with occurrence counts; the
# verbs differ between the two worlds, the prepositions mostly do not
phrases = {
    "performing": [
        ("sings with", 22),
        ("performs alongside", 17),
        ("dances with", 14),
        ("on stage with", 9),
        ("records a duet with", 6),
    ],
    "politics": [
        ("debates with", 21),
        ("campaigns alongside", 16),
        ("negotiates with", 12),
        ("meets with", 11),
        ("votes with", 5),
    ],
}

table = build_term_category_table(phrases)
print(f"\nterm table: {len(table.terms)} stemmed terms, "
      f"{table.total} weighted occurrences")

ranked = mutual_information(table, smoothing=1.0)
for category in table.categories:
    print(f"\nmost characteristic of {category}:")
    for term, score in top_terms(ranked, category, 4):
        print(f"  {term:<10} {score:+.3f}")

# "with" appears heavily on both sides, so it carries almost no signal
with_rows = {c: s for t, c, s in ranked if t == "with"}
print("\nthe shared preposition is uninformative:")
for category, score in with_rows.items():
    print(f"  with / {category}: {score:+.3f}")
