"""The documentation stays true: links resolve, examples execute.

Three docs are part of the deliverable surface (`docs/ARCHITECTURE.md`,
`docs/OPERATIONS.md`, `docs/INDEX_FORMAT.md`) and the README links to
all of them.  Prose rots silently, so this suite mechanically enforces
what can be enforced:

- every relative markdown link in README.md and docs/*.md points at a
  file that exists;
- every repo path a doc names in backticks (``src/repro/...``,
  ``docs/...``, ``tests/...``, ``benchmarks/...``) exists;
- every ``/stats`` field a doc sends an operator to (`` `name` in
  `/stats` ``, and each row of the field reference in
  ``docs/OPERATIONS.md``) is a key of a live ``QueryService.stats()``;
- the fenced examples in the index-format specification actually run
  (``doctest`` over the file — the same check CI runs);
- the README links all three docs, so they are discoverable;
- the shard fan-out backends the README describes, the ones ``repro
  serve --backend`` offers, the ones the operations knob table names and
  the ones the engine implements agree, no doc mentions a fan-out API
  that no longer exists, and no code, benchmark or CI step names the
  ``threads`` backend that ``serial`` replaced;
- the operations knob table is the CLI: every flag in it is a ``repro
  serve`` option with the default the table states;
- the fault-policy paragraph under it names every constant of
  ``core/supervision.py`` with its value, and the library-keyword table
  names exactly the keywords of ``PartitionedSubtrajectorySearch`` and
  ``QueryService`` — an option can be neither added undocumented nor
  removed with its row left behind.
"""

import doctest
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_BACKTICK_PATH = re.compile(
    r"`((?:src/repro|docs|tests|benchmarks)/[A-Za-z0-9_./-]+)`"
)
#: "`rejected` in `/stats`", "`coalesced_retries` in `GET /stats`",
#: "`GET /stats` under `trie_cache`" — prose may wrap between words.
_STATS_FIELD = re.compile(
    r"`(\w+)`\s+in\s+`(?:GET\s+)?/stats`"
    r"|/stats`\s+under\s+`(\w+)`"
)


def _doc_ids():
    return [str(p.relative_to(REPO)) for p in DOC_FILES]


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (doc.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_backticked_repo_paths_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = [
        path
        for path in _BACKTICK_PATH.findall(text)
        if not (REPO / path).exists()
    ]
    assert not missing, f"{doc.name}: names nonexistent repo paths {missing}"


@pytest.fixture(scope="module")
def live_stats_keys(line_graph):
    from repro.core.engine import SubtrajectorySearch
    from repro.distance.costs import LevenshteinCost
    from repro.service import QueryService
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.model import Trajectory

    dataset = TrajectoryDataset(line_graph)
    dataset.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
    with QueryService(SubtrajectorySearch(dataset, LevenshteinCost())) as service:
        service.query([1, 2], tau=1.0)
        return set(service.stats())


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_stats_fields_named_in_docs_exist(doc, live_stats_keys):
    text = doc.read_text(encoding="utf-8")
    named = {a or b for a, b in _STATS_FIELD.findall(text)}
    unknown = sorted(named - live_stats_keys)
    assert not unknown, (
        f"{doc.name} sends operators to /stats fields that do not exist: "
        f"{unknown}"
    )


def test_stats_field_reference_is_complete_and_true(live_stats_keys):
    text = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    section = text.split("## `/stats` field reference", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|")[1]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    documented = {key for cell in rows for key in re.findall(r"`(\w+)`", cell)}
    assert documented == live_stats_keys


def test_readme_links_all_three_docs():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for name in ("ARCHITECTURE.md", "OPERATIONS.md", "INDEX_FORMAT.md"):
        assert f"docs/{name}" in text, f"README does not link docs/{name}"


def _serve_options():
    from repro.cli import build_parser

    commands = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    return {
        flag: action
        for action in commands.choices["serve"]._actions
        for flag in action.option_strings
    }


def test_fan_out_backends_agree_across_readme_cli_and_engine():
    from repro.core.partitioned import _BACKENDS

    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("### Choosing a shard fan-out backend", 1)[1]
    section = re.split(r"^(?:#{1,3} |HTTP API)", section, maxsplit=1, flags=re.M)[0]
    described = set(re.findall(r"^- \*\*`(\w+)`\*\*", section, flags=re.M))
    assert described == set(_BACKENDS)
    assert "max_workers" not in section  # the engine has no pool to size

    assert set(_serve_options()["--backend"].choices) == set(_BACKENDS)
    (row,) = re.findall(r"^\| `--backend` \|.*$", _knob_section(), re.M)
    named = set(re.findall(r"`(\w+)` \(", row))
    assert named == set(_BACKENDS)


#: what the one fan-out replaced (the pool's own fan-out, the executor's
#: span attribute for its private one, the engine's pool-size knob), and
#: what the one warm-query cache replaced (the substitution LRU, its
#: keyword and its flag), and the R-tree's box, which outlived the R-tree,
#: the status accessors the one ``status()`` snapshot replaced, and the
#: caller-set walker (its keyword, its flag and its span attribute), and
#: the per-query matrix the warm-state entry absorbed, with the network
#: models' Dijkstra switch, and the in-process thread fan-out backend,
#: which lost to ``serial`` on every measurement, and the second walker:
#: the rule that picked it, its kernel, its row hook and its two metrics.
_THREADS_BACKEND = r"--backend threads|backend=[\"']threads[\"']|`threads`"
_GONE = re.compile(
    r"query_all|fan_out=|PartitionedSubtrajectorySearch\([^)]*max_workers"
    r"|substitution_cache_size|--substitution-cache-size|SubstitutionMatrixCache"
    r"|BoundingBox"
    r"|worker_states|restarts_total\(|retry_after\(\)|\.nodes\(\)|cache_stats\("
    r"|trie_cache_stats|index_stats|_aggregate_index|_shard_cache_parts"
    r"|_TRIE_FIELDS|_INDEX_FIELDS"
    r"|--dp-backend|dp_backend=|DP_BACKENDS"
    r"|choose_dp_backend|AUTO_PYTHON_MAX_QUERY|step_dp_batch|sub_row_array"
    r"|repro_queries_by_dp_backend_total|repro_dp_rounds_total"
    r"|SubstitutionMatrix\b|sub_matrix\(|use_hub_labeling"
    r"|_absorb_published|publish-after-write"
    r"|TrieNode|trie_node_count|consults no entry"
    r"|prefix-min|ins_prefix=|wed_step\("
    r"|sub_rows|DirectionState\.sub_row\b"
    r"|_FIRST_CHUNK|no row yet|resumptions"
    r"|" + _THREADS_BACKEND
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_docs_name_no_removed_fan_out_api(doc):
    stale = _GONE.findall(doc.read_text(encoding="utf-8"))
    assert not stale, f"{doc.name} still mentions {stale}"


def test_no_code_benchmark_or_ci_step_names_the_threads_backend():
    paths = [
        *(REPO / "src").rglob("*.py"),
        *(REPO / "benchmarks").glob("*.py"),
        *(REPO / ".github" / "workflows").glob("*.yml"),
    ]
    pattern = re.compile(_THREADS_BACKEND)
    stale = [
        path.relative_to(REPO).as_posix()
        for path in paths
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert not stale, stale


def test_service_tier_never_probes_the_engine_by_name():
    """Both engines answer the same surface (``query``, ``add_trajectory``,
    ``costs``, ``dataset``, ``status``, ``close``): nothing in the service
    tier, the CLI or top-k finds out which one it holds."""
    sources = sorted((REPO / "src" / "repro" / "service").glob("*.py"))
    sources += [REPO / "src" / "repro" / name for name in ("cli.py", "core/topk.py")]
    probe = re.compile(r"(?:getattr|hasattr)\([^)]*engine")
    found = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if probe.search(line)
    ]
    assert not found, found


def _knob_section():
    text = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    return text.split("## The knob table", 1)[1].split("\n#", 1)[0]


def _agrees(cell, default):
    """A Default cell of the knob table against a real default."""
    if cell in ("off", "—"):
        return default is None
    if cell == "on":
        return default is True
    try:
        return float(cell.split()[0]) == float(default)
    except (TypeError, ValueError):
        return cell == default


def test_knob_table_flags_are_serve_options_with_the_stated_defaults():
    rows = re.findall(r"^\| `(--[\w-]+)` \| `?([^|`]+)`? \|", _knob_section(), re.M)
    assert len(rows) >= 14, "knob table not found or reshaped"
    options = _serve_options()
    wrong = []
    for flag, cell in rows:
        action = options.get(flag)
        if action is None:
            wrong.append(f"{flag}: not an option of `repro serve`")
        elif not _agrees(cell.strip(), action.default):
            wrong.append(f"{flag}: table says {cell!r}, parser says {action.default!r}")
    assert not wrong, wrong


def test_fault_policy_constants_are_documented_with_their_values():
    from repro.core import supervision

    paragraph = _knob_section().split("The fault policy", 1)[1].split("\n\n", 1)[0]
    stated = dict(re.findall(r"`(\w+)` \(([^)]+)\)", paragraph))
    constants = {
        name: value
        for name, value in vars(supervision).items()
        if name.isupper() and isinstance(value, (int, float))
    }
    assert set(stated) == set(constants)
    wrong = [
        f"{name}: doc says {cell!r}, code says {constants[name]!r}"
        for name, cell in stated.items()
        if not _agrees(cell, constants[name])
    ]
    assert not wrong, wrong


def test_library_keyword_table_is_the_constructors():
    from repro.core.partitioned import PartitionedSubtrajectorySearch
    from repro.service import QueryService

    text = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    section = text.split("### Library keywords", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)\((\w+)=\)` \|", section, re.M))
    actual = {
        (cls.__name__, name)
        for cls in (PartitionedSubtrajectorySearch, QueryService)
        for name, parameter in inspect.signature(cls.__init__).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert documented == actual


def test_index_format_examples_execute():
    results = doctest.testfile(
        str(REPO / "docs" / "INDEX_FORMAT.md"),
        module_relative=False,
        verbose=False,
    )
    assert results.attempted > 0, "spec lost its executable examples"
    assert results.failed == 0
