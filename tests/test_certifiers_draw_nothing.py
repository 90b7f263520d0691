"""The point checks take the points they check and draw none.

``check_coisotropic`` certifies given cone points y,
``check_orbit_multiplicity`` given cone parameters x and
``check_orthocomplement_identity`` given domain points; only ``certify_all``
draws points.  This scans the syntax tree of ``certify.py``: a point check
must not use a generator, a normal draw or a point sampler, itself or through
any function of the module that it names, directly or through each other.
``certify_all`` draws once, one generator for the pairs (y, y^-1) at which
both sampled certifiers check.
"""
import ast
from pathlib import Path

from test_rank_policy import uses

SRC = Path(__file__).resolve().parents[1] / "src" / "qsiegel"
DRAWS = ("default_rng", "standard_normal", "sample_domain_point", "_coisotropic_points")


def reached(source, root):
    """Names of the module-level functions that ``root`` names, directly or
    through each other, ``root`` included."""
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        todo.extend(node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name))
    return seen


def draws(source, root):
    """(function, name) of each draw that ``root`` reaches."""
    functions = reached(source, root)
    return [hit for hit in uses(source, DRAWS) if hit[0] in functions]


def test_the_scan_follows_the_functions_a_certifier_names():
    source = (
        "def certifier(q_map, ys):\n    return helper(q_map, ys)\n"
        "def helper(q_map, ys):\n    return points(q_map)\n"
        "def points(q_map):\n    return np.random.default_rng(0).standard_normal(3)\n"
        "def clean(q_map, ys):\n    return ys\n"
    )
    assert sorted(draws(source, "certifier")) == [("points", "default_rng"), ("points", "standard_normal")]
    assert draws(source, "clean") == []


def test_the_sampled_certifiers_draw_nothing():
    source = (SRC / "certify.py").read_text()
    assert draws(source, "check_coisotropic") == []
    assert draws(source, "check_orbit_multiplicity") == []
    assert draws(source, "check_orthocomplement_identity") == []


def test_certify_all_draws_its_points_once():
    # one stack of pairs (y, y^-1) serves both sampled certifiers
    source = (SRC / "certify.py").read_text()
    assert [hit for hit in uses(source, ("_cone_points",)) if hit[0] == "certify_all"] == [
        ("certify_all", "_cone_points")
    ]


def test_cone_points_uses_one_generator():
    source = (SRC / "certify.py").read_text()
    assert [hit for hit in uses(source, ("default_rng",)) if hit[0] == "_cone_points"] == [
        ("_cone_points", "default_rng")
    ]
