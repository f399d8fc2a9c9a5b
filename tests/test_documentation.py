"""Documentation hygiene: every public module, class and function in the
library carries a docstring (deliverable (e): doc comments on every public
item), the README's system-tables listing matches the live registry,
nothing still refers to a deleted feature, and ``benchmarks/RESULTS.txt``
is exactly the rendering of the checked-in ``BENCH_*.json`` records."""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.catalog import system_tables


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = _public_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their definition site
        if not (obj.__doc__ and obj.__doc__.strip()) and not (
            inspect.isfunction(obj) and _is_trivial(obj)
        ):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if _overrides_documented_base(obj, member_name):
                    continue  # docstring inherited from the base definition
                if member_name in _PROTOCOL_METHODS and (
                    obj.__doc__ and obj.__doc__.strip()
                ):
                    # Structural-protocol implementations (optimizer rules,
                    # data sources, sandboxes): the contract is documented on
                    # the protocol; the class docstring covers the behaviour.
                    continue
                if member.__doc__ is None and not _is_trivial(member):
                    undocumented.append(
                        f"{module.__name__}.{name}.{member_name}"
                    )
    assert not undocumented, f"undocumented public items: {undocumented}"


#: Methods defined by documented structural protocols elsewhere.
_PROTOCOL_METHODS = frozenset({"apply", "eval", "execute", "scan", "invoke",
                               "invoke_many", "close", "handle",
                               "handle_stream", "resolve_relation",
                               "authenticate", "execute_relation",
                               "execute_command", "analyze_relation",
                               "on_session_closed", "run_udf", "run_fused"})


def _overrides_documented_base(cls, member_name: str) -> bool:
    """True if a base class (or protocol) documents this method already."""
    for base in cls.__mro__[1:]:
        base_member = base.__dict__.get(member_name)
        if base_member is not None and getattr(base_member, "__doc__", None):
            return True
    return False


def _is_trivial(func) -> bool:
    """Short delegating functions (≤ 7 source lines) may skip docstrings;
    their names and signatures are the documentation."""
    try:
        source = inspect.getsource(func)
    except OSError:
        return True
    lines = [ln for ln in source.strip().splitlines() if ln.strip()]
    return len(lines) <= 7


def test_readme_lists_every_system_table():
    """The README's system-tables table names every registered
    ``system.access.*`` table with its visibility — no more, no fewer.

    The registry (``repro.catalog.system_tables.TABLES``) is the source of
    truth; this test is what keeps the doc from silently rotting when a new
    introspection table is added or one changes who may read it.
    """
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    match = re.search(
        r"### System tables\n(.*?)(?=\n#{2,3} )", readme, flags=re.DOTALL
    )
    assert match, "README has no '### System tables' section"
    documented = set(
        re.findall(r"\| `(system\.access\.[a-z_]+)` \| ([a-z-]+) \|", match.group(1))
    )
    registered = {(table.name, table.visibility) for table in system_tables.TABLES}
    assert documented == registered, (
        f"README system-tables listing is out of sync: "
        f"missing {sorted(registered - documented)}, "
        f"extra {sorted(documented - registered)}"
    )


#: Deleted in PR 13 (DESIGN.md §15): the simulated distributed-KV tier,
#: scan-task duplicate submission, and eight cluster keywords. Deleted in
#: PR 21: the sandbox's shared-memory transport — its constructor option and
#: its two frame kinds (spelt as a group so that grepping the tree for the
#: three names stays empty).
_DELETED = re.compile(
    r"(?i:distkv|dist_kv|hedg)|"
    r"\b(kernel_cache_capacity|plan_cache_capacity|credential_refresh_ahead|"
    r"workload_max_total_queue|workload_admission_timeout|"
    r"scan_retry_base_delay)\b|"
    r"\b(use|invoke|invoke_many)_shm\b"
)


def test_nothing_refers_to_a_deleted_feature():
    """No source, test, example or doc still names what the deletion ledger
    removed. Committed ``benchmarks/`` records are history and exempt."""
    root = Path(__file__).parent.parent
    files = [root / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    for folder in ("src", "tests", "examples"):
        files += (root / folder).rglob("*.py")
    stale = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in files
        if path != Path(__file__)
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _DELETED.search(line)
    ]
    assert not stale, "stale references:\n" + "\n".join(stale)


def test_results_txt_is_generated_from_bench_records():
    """``benchmarks/RESULTS.txt`` must byte-match the deterministic rendering
    of the checked-in ``BENCH_*.json`` set — a benchmark run that updates a
    JSON record without regenerating the text file fails here, so the two
    can never drift apart again."""
    bench_dir = Path(__file__).parent.parent / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        from harness import render_bench_records
    finally:
        sys.path.remove(str(bench_dir))
    expected = render_bench_records(bench_dir)
    actual = (bench_dir / "RESULTS.txt").read_text()
    assert actual == expected, (
        "benchmarks/RESULTS.txt drifted from the BENCH_*.json records — "
        "regenerate it with: PYTHONPATH=src python benchmarks/harness.py"
    )


def test_design_threat_matrix_matches_attack_registry():
    """DESIGN.md §12's threat-model matrix names every registered attack
    scenario, and names no scenario that does not exist.

    The attack registry (``repro.attacks.registry``) is the source of
    truth; this diff is what keeps the threat-model chapter honest when
    scenarios are added, renamed or removed.
    """
    from repro.attacks import registry as attack_registry

    attack_registry.load_all_scenarios()
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    match = re.search(
        r"## 12\. Threat model.*?(?=\n## 13\.)", design, flags=re.DOTALL
    )
    assert match, "DESIGN.md has no '## 12. Threat model' chapter"
    chapter = match.group(0)
    families = "|".join(sorted(attack_registry.technique_families()))
    prefixes = {f.split("-")[0] for f in attack_registry.technique_families()}
    prefixes |= {"udf", "plan", "credential", "cache", "admission", "profile"}
    documented = {
        token
        for token in re.findall(r"`([a-z-]+)`", chapter)
        if token.split("-")[0] in prefixes and "-" in token
        and token not in families.split("|")
    }
    registered = set(attack_registry.scenario_names())
    assert documented == registered, (
        f"DESIGN.md threat matrix is out of sync with the attack registry: "
        f"missing {sorted(registered - documented)}, "
        f"stale {sorted(documented - registered)}"
    )
