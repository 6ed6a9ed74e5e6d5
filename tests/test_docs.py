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
  serve --backend`` offers and the ones the engine implements agree,
  and no doc mentions a fan-out API that no longer exists.
"""

import doctest
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


def test_fan_out_backends_agree_across_readme_cli_and_engine():
    from repro.cli import build_parser
    from repro.core.partitioned import _BACKENDS

    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("### Choosing a shard fan-out backend", 1)[1]
    section = re.split(r"^(?:#{1,3} |HTTP API)", section, maxsplit=1, flags=re.M)[0]
    described = set(re.findall(r"^- \*\*`(\w+)`\*\*", section, flags=re.M))
    assert described == set(_BACKENDS)
    assert "max_workers" not in section  # the engine has no pool to size

    commands = next(
        action
        for action in build_parser()._actions
        if action.dest == "command"
    )
    offered = next(
        action for action in commands.choices["serve"]._actions
        if action.dest == "backend"
    ).choices
    assert offered and set(offered) <= set(_BACKENDS)


#: what the one fan-out replaced: the pool's own fan-out, the executor's
#: span attribute for its private one, and the engine's pool-size knob.
_GONE = re.compile(
    r"query_all|fan_out=|PartitionedSubtrajectorySearch\([^)]*max_workers"
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_docs_name_no_removed_fan_out_api(doc):
    stale = _GONE.findall(doc.read_text(encoding="utf-8"))
    assert not stale, f"{doc.name} still mentions {stale}"


def test_index_format_examples_execute():
    results = doctest.testfile(
        str(REPO / "docs" / "INDEX_FORMAT.md"),
        module_relative=False,
        verbose=False,
    )
    assert results.attempted > 0, "spec lost its executable examples"
    assert results.failed == 0
