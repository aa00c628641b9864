"""Walk through reducing a causal graph to its informative core.

The running example: a treatment A, an outcome Y, one adjustment covariate
O1, an instrument I1 and a web of baseline covariates W1..W4.  Only five of
the eight variables carry information for estimating the interventional mean
E Y(a); the rest can go unmeasured with no efficiency loss.
"""

import causal_reduce as cr

GRAPH = """
!treatment A
!outcome Y
A -> Y
I1 -> A
O1 -> Y
W4 -> I1
W4 -> O1
W2 -> W4
W3 -> W4
W1 -> W2
"""

g = cr.parse_graph(GRAPH)
print("original graph:")
print(cr.format_graph(g))

# Step 1: classify every vertex.
tax = cr.classify(g)
print("taxonomy")
print("  non-ancestors of Y      :", sorted(tax.n) or "-")
print("  indirect ancestors (I)  :", sorted(tax.i))
print("  baseline covariates (W) :", sorted(tax.w))
print("  mediators incl. Y (M)   :", sorted(tax.m))
print("  optimal adjustment (O)  :", sorted(tax.o))
print("  minimal subset (O_min)  :", sorted(tax.o_min))
print()

# Step 2: judge each candidate covariate (W outside O) and mediator (M
# outside Y). W4 turns out to be uninformative even though it sits right
# between the confounders and the treatment.
for v, verdict in cr.criterion_verdicts(g, tax).items():
    status = "uninformative" if verdict.satisfied else (
        f"informative (fails clause {verdict.failed_clause})"
    )
    print(f"  {v}: {status}")
print()

# Step 3: reduce. The report records what was removed and why.
report = cr.reduce(g)
print("removed:")
for vertex, reason, pi in report.removed:
    print(f"  {vertex:3} ({reason})" + (f" via pi={list(pi)}" if pi else ""))
print()
print("reduced graph:")
print(cr.format_graph(report.output))

# Step 4: the irreducible efficient identifying formula only mentions the
# informative variables.
formula = cr.derive_gformula(report.output)
print("irreducible efficient g-formula:")
print(" ", cr.render(formula, "text"))
