"""The README's library tour runs as written and gives the values its
comments claim."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_tour():
    """The namespace after the README's python block, and the value of each
    of its expression statements, keyed by source text."""
    text = README.read_text(encoding="utf-8")
    source = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    ns, values = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, ns)
        else:
            exec(code, ns)
    return ns, values


def test_library_tour_claims():
    ns, values = run_tour()
    rep = ns["rep"]
    assert rep.dim == 2
    assert rep.verdicts[0].status == "member"
    assert rep.verdicts[0].route == "tail"
    assert rep.verdicts[0].terms_used == 256
    assert values["bt.kernel_dimension((1, [0, 0.99995])).reason"] == (
        "below resolution: K |1 - rho| = 0.5 < 4.5 at the cap K = 20000")

    assert values["bt.oracles.schur_cohn(p).in_disk_count"] == 2
    assert ns["zp"].in_disk == 2
    assert values["zp.distinct()"] is False

    assert values["bt.fredholm_index(sym, 0)"] == 1
    assert values["bt.classify_projective(2, 0, 0, 1).region"] == "Omega0"

    grid = ns["grid"]
    assert grid.certified.tolist() == [False, True]
    assert grid.bounded.tolist() == [True, False]
    assert values["basis.eval_basis(1, 0.0)"] == 1.0
    assert values["bt.oracles.residual_check(basis, 1)"] <= 1e-12
