"""Fixed-point determinism-taint propagation over the static call graph.

Every function node in a :class:`repro.lint.callgraph.ProjectIndex` is
classified against three taint kinds:

* ``wallclock`` — reads ambient wall-clock time (``time.time``,
  ``perf_counter``, ``datetime.now``, ...);
* ``rng`` — draws ambient randomness (``random``/``secrets``/
  ``np.random``/``os.urandom``);
* ``global`` — mutates module-level state (``global``/``nonlocal``,
  stores through a module-level name, mutator-method calls on one).

A function with none of these, whose transitive callees also have none,
is **CLEAN**.  Taint flows caller-ward to a fixed point (the propagation
is a per-source reverse BFS, so the witness chain reported to the user
is a real static call path, not a may-alias guess).

Allowlists are honored at the *source*: wall-clock reads inside the
``WALLCLOCK_ALLOWED`` packages (runner pool timing)
and seeded randomness inside ``repro.sim.rng`` produce no taint at all.
``# simlint: ok <rule>`` waivers are also applied at the source line —
waiving ``D-wallclock`` there silences the per-file rule but leaves the
taint flowing, while naming ``D-taskpure-deep``/``D-sim-pure`` (or the
``D`` family) stops the taint for that rule before it propagates.

Two transitive rules ride on the propagation:

* ``D-taskpure-deep`` — a ``@task`` callable reaching any taint;
* ``D-sim-pure`` — a scheduler-registered callback reaching a
  wall-clock or RNG taint.

Plus the reference-based export audit ``L-api-drift``: a public symbol
defined in a ``repro.*`` module that no other file (module, test,
benchmark, CLI, example) ever mentions by name.
"""

from collections import deque

from repro.lint.rules import (
    WALLCLOCK_ALLOWED,
    Violation,
    rule_waived_at,
)

#: Taint kinds each transitive rule cares about.
TAINT_RULE_KINDS = {
    "D-taskpure-deep": ("wallclock", "rng", "global"),
    "D-sim-pure": ("wallclock", "rng"),
}

#: Human labels for chain messages.
_KIND_LABEL = {
    "wallclock": "a wall-clock read",
    "rng": "ambient randomness",
    "global": "module-state mutation",
}


def _wallclock_allowed(module):
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in WALLCLOCK_ALLOWED
    )


def _file_waivers(summary):
    """Summary waiver table back to ``{int line: set of rules}``."""
    return {
        int(line): set(rules)
        for line, rules in summary.get("waivers", {}).items()
    }


def collect_taint_sources(index):
    """Every un-allowlisted taint site in the project.

    Returns a list of source dicts (``node``, ``kind``, ``detail``,
    ``path``, ``line``, ``waived``) — ``waived`` being the raw waiver
    set on the source line, checked per rule at report time.
    """
    sources = []
    for node_id in sorted(index.nodes):
        node = index.nodes[node_id]
        module = node["module"]
        summary = index.modules[module]
        waivers = _file_waivers(summary)
        wallclock_ok = _wallclock_allowed(module)
        for taint in node["record"]["taints"]:
            kind = taint["kind"]
            if kind == "wallclock" and wallclock_ok:
                continue
            if kind == "rng" and module == "repro.sim.rng":
                continue
            sources.append({
                "node": node_id,
                "kind": kind,
                "detail": taint["detail"],
                "path": node["path"],
                "line": taint["line"],
                "waived": waivers.get(taint["line"], set()),
            })
    return sources


def propagate_taints(index, sources):
    """Reverse-BFS every source up the call graph to a fixed point.

    Returns ``{node id: {source index: next hop toward the source}}``;
    the next hop is ``None`` at the source's own function, so a witness
    chain is recovered by walking hops until ``None``.
    """
    reverse = index.reverse_edges()
    reach = {}
    for idx, source in enumerate(sources):
        start = source["node"]
        reach.setdefault(start, {}).setdefault(idx, None)
        queue = deque([start])
        seen = {start}
        while queue:
            current = queue.popleft()
            for caller in reverse.get(current, ()):
                if caller in seen:
                    continue
                seen.add(caller)
                reach.setdefault(caller, {}).setdefault(idx, current)
                queue.append(caller)
    return reach


def classify(index, sources=None, reach=None):
    """``{node id: sorted list of taint kinds}`` — CLEAN nodes omitted."""
    if sources is None:
        sources = collect_taint_sources(index)
    if reach is None:
        reach = propagate_taints(index, sources)
    kinds = {}
    for node_id, hits in reach.items():
        kinds[node_id] = sorted({sources[idx]["kind"] for idx in hits})
    return kinds


def witness_chain(index, reach, sources, node_id, source_idx):
    """The static call path from ``node_id`` down to the taint source."""
    chain = [node_id]
    current = node_id
    while True:
        next_hop = reach[current][source_idx]
        if next_hop is None:
            break
        chain.append(next_hop)
        current = next_hop
    return chain


def _qualname(node_id):
    return node_id.rsplit(":", 1)[-1]


def _root_waived(index, node_id, rule):
    node = index.nodes[node_id]
    summary = index.modules[node["module"]]
    waivers = _file_waivers(summary)
    return rule_waived_at(waivers, node["record"]["waive_lines"], rule)


def _source_waived(source, rule):
    family = rule.split("-", 1)[0]
    return bool({"*", rule, family} & source["waived"])


def _taint_violations_for_roots(index, reach, sources, roots, rule, noun):
    violations = []
    kinds = TAINT_RULE_KINDS[rule]
    for root in roots:
        hits = reach.get(root)
        if not hits:
            continue
        if _root_waived(index, root, rule):
            continue
        node = index.nodes[root]
        for idx in sorted(hits):
            source = sources[idx]
            if source["kind"] not in kinds:
                continue
            if _source_waived(source, rule):
                continue
            chain = witness_chain(index, reach, sources, root, idx)
            if len(chain) == 1:
                via = "directly"
            else:
                via = "via %s" % " -> ".join(
                    _qualname(hop) for hop in chain[1:]
                )
            violations.append(Violation(
                node["path"], node["record"]["line"], 0, rule,
                "%s %s reaches %s (%s at %s:%d) %s" % (
                    noun, _qualname(root), _KIND_LABEL[source["kind"]],
                    source["detail"], source["path"], source["line"], via,
                ),
            ))
    return violations


def deep_violations(index):
    """All transitive-purity findings for a resolved project index."""
    sources = collect_taint_sources(index)
    reach = propagate_taints(index, sources)
    violations = []
    violations.extend(_taint_violations_for_roots(
        index, reach, sources, index.tasks, "D-taskpure-deep", "task",
    ))
    violations.extend(_taint_violations_for_roots(
        index, reach, sources, index.sim_roots, "D-sim-pure",
        "scheduler callback",
    ))
    return violations


def api_drift_violations(summaries, extra_refs=()):
    """``L-api-drift``: exported-but-unreferenced public symbols.

    ``summaries`` are the linted files' call-graph summaries;
    ``extra_refs`` is an iterable of ``(path, iterable-of-names)`` pairs
    contributing reference-only files (examples) to the usage pool
    without linting them.
    """
    refs_by_path = {
        summary["path"]: set(summary["refs"]) for summary in summaries
    }
    for path, names in extra_refs:
        refs_by_path.setdefault(path, set()).update(names)
    violations = []
    for summary in summaries:
        real_module = summary.get("real_module")
        if real_module is None or not (
            real_module == "repro" or real_module.startswith("repro.")
        ):
            continue
        if real_module.rsplit(".", 1)[-1] == "__main__":
            continue  # CLI modules are entry points, not exports
        waivers = _file_waivers(summary)
        own_path = summary["path"]
        for name in sorted(summary["public"]):
            line = summary["public"][name]
            used = any(
                name in refs
                for path, refs in refs_by_path.items()
                if path != own_path
            )
            if used:
                continue
            if rule_waived_at(waivers, (line,), "L-api-drift"):
                continue
            violations.append(Violation(
                own_path, line, 0, "L-api-drift",
                "public symbol %s is never referenced outside %s; "
                "demote it to _%s, delete it, or use it" % (
                    name, own_path, name,
                ),
            ))
    return violations
