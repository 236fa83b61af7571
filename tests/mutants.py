"""The standing mutant catalogue: small wrong versions of ``src/fmkit``, each
with the tests that must fail on it.

Run from the repository root:  python tests/mutants.py [NAME ...]

The runner copies ``src/``, ``tests/``, ``corpus/`` and ``perfbench/`` to a
temporary directory once (tests find the corpus, and the ``src/`` their
subprocesses run, from their own path).  For each mutant it replaces the
entry's old text in that copy, runs ``pytest -x -q`` on the entry's tests
with ``PYTHONPATH`` pointing at the copied ``src/``, and puts the file back.
A mutant is killed when pytest fails; first, every catalogued test must
pass on the unmutated copy, so a failure is the mutant's doing.  The runner exits 1 when a mutant
that should be killed survives, or when one listed as a survivor is killed
(its reason no longer holds); with names, it runs only those mutants.

An entry whose code moves must move with it: ``tests/test_mutants.py``
checks in tier-1 that each old text occurs exactly once in ``src/``.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "corpus", "perfbench")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/fmkit/
    old: str  # occurs exactly once in src/
    new: str
    tests: tuple[str, ...]
    survives: Optional[str] = None  # why no test can kill it, for an equivalent mutant


SIM = "tests/test_simulate.py::"
HISTORY = "tests/test_history.py::"
BEHAVIOR = "tests/test_behavior.py::"
READER = "tests/test_trace_reader.py::"

MUTANTS = (
    # The simulator's site table.
    Mutant(
        "hops-unsorted", "simulate.py",
        "for hop in sorted(hops.values(), key=_by_label):", "for hop in hops.values():",
        (SIM + "test_blocked_records_follow_label_order",),
    ),
    Mutant(
        "triggers-unsorted", "simulate.py",
        "for trig in sorted(model.triggers, key=_by_label):", "for trig in model.triggers:",
        (SIM + "test_blocked_records_follow_label_order",),
    ),
    Mutant(
        "trigger-source-not-leaving", "simulate.py",
        "src.leaves = src.completes = True", "src.completes = True",
        (SIM + "test_cancel_returns_same_cash_thing",),
    ),
    Mutant(
        "calendar-flag-from-assigns-only", "simulate.py",
        "src.leaves = src.completes = True", "src.leaves = True",
        (SIM + "test_cancel_returns_same_cash_thing",),
    ),
    Mutant(
        "flow-source-not-leaving", "simulate.py",
        "            src.leaves = True\n            if arc.is_chain_head:", "            if arc.is_chain_head:",
        (SIM + "test_run_chain_walk",),
    ),
    Mutant(
        "create-targets-gated", "simulate.py",
        "gated = {t.dst for t in model.triggers if t.dst.stage is not Stage.CREATE}",
        "gated = {t.dst for t in model.triggers}",
        (SIM + "test_exact_cash_produces_ticket",),
    ),
    Mutant(
        "assigns-on-every-stage", "simulate.py",
        "self.assigns = machine.assigns if ep.stage is Stage.PROCESS else ()", "self.assigns = machine.assigns",
        (SIM + "test_thing_examined_while_dwelling_is_not_parked",),
    ),
    Mutant(
        "every-hop-a-head", "simulate.py",
        "            if arc.is_chain_head:\n                src.heads += (hop,)", "            src.heads += (hop,)",
        ("tests/test_differential.py::test_fuzz_models_match_oracle[1]",),
    ),
    # The simulator's step: the completion calendar and the scan.
    Mutant(
        "every-arrival-enters-the-calendar", "simulate.py",
        "self.completes = bool(self.assigns)", "self.completes = True",
        (SIM + "test_step_matches_the_reference_step", "tests/test_differential.py::test_fuzz_models_match_oracle"),
        survives="completion at a site with no assigns and no triggers does nothing",
    ),
    Mutant(
        "stale-calendar-entries-kept", "simulate.py",
        "            if thing is None or thing.arrival_tick + dwell != tick:\n", "            if thing is None:\n",
        (SIM + "test_a_thing_released_early_completes_once_where_it_arrives",),
    ),
    Mutant(
        "consumed-thing-left-active", "simulate.py",
        "            self._active.pop(thing_id, None)\n", "",
        (SIM + "test_oracle_equivalence_small_scenario",),
    ),
    Mutant(
        "parking-while-dwelling", "simulate.py",
        "if not dwelling and len(blocked) == n_blocked:", "if len(blocked) == n_blocked:",
        (SIM + "test_thing_examined_while_dwelling_is_not_parked",),
    ),
    Mutant(
        "parked-thing-stays-active", "simulate.py",
        "        for thing_id in parked:\n            del active[thing_id]\n", "",
        (SIM + "test_step_matches_the_reference_step", "tests/test_differential.py::test_fuzz_models_match_oracle"),
        survives="a parked thing has no open arc and raises no guard error, so a scan passes over it",
    ),
    Mutant(
        "spawn-never-completes", "simulate.py",
        "        if site.completes:\n            self._calendar.setdefault(self.tick + self.config.stage_dwell, []).append(thing.id)\n",
        "",
        (SIM + "test_spawn_at_a_trigger_source_completes_there",),
    ),
    Mutant(
        "held-firing-not-live", "simulate.py",
        "        for firing in self.pending_firings:\n            if gate is None or gate.permits(firing[0]):\n"
        "                return True\n",
        "",
        (SIM + "test_a_firing_the_gate_holds_keeps_the_run_live",),
    ),
    Mutant(
        "unknown-target-spawns", "simulate.py",
        '            if site is None:\n                raise SimError(f"injection target {inj.target} is not a stage',
        '            if False:\n                raise SimError(f"injection target {inj.target} is not a stage',
        (SIM + "test_injection_at_no_stage_of_the_model_is_a_sim_error",),
    ),
    # The ledger's duplicate check.
    Mutant(
        "no-duplicate-check", "history.py",
        "        if record in records[bisect_left(slot.stamps, when):i]:", "        if False:",
        (HISTORY + "test_duplicate_record_rejected",),
    ),
    Mutant(
        "duplicate-check-on-the-last-tie", "history.py",
        "records[bisect_left(slot.stamps, when):i]", "records[i - 1:i]",
        (HISTORY + "test_duplicate_behind_a_same_instant_record_rejected",),
    ),
    Mutant(
        "duplicate-scan-from-the-start", "history.py",
        "records[bisect_left(slot.stamps, when):i]", "records[:i]",
        (HISTORY + "test_duplicate_record_rejected", HISTORY + "test_ledger_matches_brute_force_reference"),
        survives="an equal record has the same 'at' text, so a record dated earlier cannot equal the new one",
    ),
    Mutant(
        "duplicate-scan-to-the-end", "history.py",
        "records[bisect_left(slot.stamps, when):i]", "records[bisect_left(slot.stamps, when):]",
        (HISTORY + "test_duplicate_record_rejected", HISTORY + "test_ledger_matches_brute_force_reference"),
        survives="an equal record has the same 'at' text, so a record dated later cannot equal the new one",
    ),
    # The ledger's line writer and reader.
    Mutant(
        "ledger-string-admits-backslash", "history.py",
        r"""_S = r'"([^"\\\x00-\x1f]*)"'""", r"""_S = r'"([^"\x00-\x1f]*)"'""",
        (HISTORY + "test_from_lines_reads_escapes_as_the_decoder_does",),
    ),
    Mutant(
        "ledger-line-not-anchored-at-its-end", "history.py",
        "found = _LINE.fullmatch(line)", "found = _LINE.match(line)",
        (HISTORY + "test_writer_line_with_more_after_it_is_the_decoders_error",),
    ),
    Mutant(
        "ledger-reader-swaps-performer-and-contractor", "history.py",
        "ReplacementRecord(slot, unit, action, at, performer, contractor, note))",
        "ReplacementRecord(slot, unit, action, at, contractor, performer, note))",
        (HISTORY + "test_round_trip_lines", HISTORY + "test_from_lines_reads_escapes_as_the_decoder_does"),
    ),
    Mutant(
        "ledger-writer-writes-a-null-note", "history.py",
        """note = "" if self.note is None else f',"note":{_quote(self.note)}'""",
        """note = f',"note":{jsonl.dumps(self.note)}'""",
        (HISTORY + "test_to_line_writes_a_note_only_when_there_is_one",),
    ),
    Mutant(
        "ledger-writer-drops-the-note", "history.py",
        """note = "" if self.note is None else f',"note":{_quote(self.note)}'""", 'note = ""',
        (HISTORY + "test_note_optional_and_preserved",),
    ),
    Mutant(
        "stamp-shape-unchecked", "history.py",
        'if text.encode("ascii", "replace").translate(_NINES) not in _SHAPES:', "if False:",
        (HISTORY + "test_stamp_outside_the_grammar_is_rejected",),
    ),
    Mutant(
        "ledger-append-parses-the-stamp-again", "history.py",
        "        when = record.timestamp\n", "        when = parse_timestamp(record.at)\n",
        (HISTORY + "test_in_order_load_parses_each_stamp_once",),
    ),
    Mutant(
        "ledger-writer-action-unescaped", "history.py",
        """f'{{"action":{_quote(self.action)},""", """f'{{"action":"{self.action}",""",
        (HISTORY + "test_to_lines_is_the_encoders_text",),
        survives="an action is one of three lowercase words, which the encoder writes as they are",
    ),
    # Event regions, the model's tables, printed events, the trace decoder and
    # the chronology automaton.
    Mutant(
        "region-triggers-counted-as-flows", "model.py",
        "            arc = model.flow(name)\n            if arc is not None:\n                flow_labels.add(name)\n"
        "            else:\n                arc = model.trigger(name)\n",
        "            arc = model.flow(name) or model.trigger(name)\n            flow_labels.add(name)\n",
        ("tests/test_acceptance.py::test_criterion_3_chronology_conformance",),
    ),
    Mutant(
        "region-drops-trigger-endpoints", "model.py",
        "            stages.update((arc.src, arc.dst))",
        "            stages.update((arc.src, arc.dst) if name in flow_labels else ())",
        ("tests/test_model_core.py::test_subdiagram_keeps_a_triggers_endpoints",),
    ),
    Mutant(
        "region-catches-every-error", "canon.py",
        "        except UnknownLabelError as exc:\n            raise CanonError(",
        "        except Exception as exc:\n            raise CanonError(",
        ("tests/test_model_core.py::test_event_region_lets_other_errors_through",),
    ),
    Mutant(
        "model-not-indexed-when-built", "model.py",
        "canonical = events, behaviors, canonical\n        self.reindex()\n",
        "canonical = events, behaviors, canonical\n",
        ("tests/test_model_core.py::test_a_model_is_indexed_when_built",),
    ),
    Mutant(
        "event-families-drop-trigger-labels", "printer.py",
        "for label in flows} | (event.region.arc_labels - flows))", "for label in flows})",
        ("tests/test_dsl.py::test_round_trip_isomorphic",),
    ),
    Mutant(
        "event-families-print-derived-labels", "printer.py",
        "{model.flow(label).family for label in flows}", "{label for label in flows}",
        ("tests/test_dsl.py::test_round_trip_isomorphic",),
    ),
    Mutant(
        "decoder-skips-arc", "export.py",
        'for name, value in (("kind", kind), ("at", at), ("arc", arc)):',
        'for name, value in (("kind", kind), ("at", at)):',
        ("tests/test_cli.py::test_conform_rejects_mistyped_field",),
    ),
    Mutant(
        "permits-after-a-violation", "behavior.py",
        "        if self.first_violation is not None:\n            return False\n", "",
        (BEHAVIOR + "test_gate_permits_matches_allowed_labels",),
    ),
    Mutant(
        "shuffle-keeps-operand-edges", "behavior.py",
        "        del self.edges[mark:]\n", "",
        (BEHAVIOR + "test_compile_matches_scan_all_edges_reference",),
    ),
    Mutant(
        "shuffle-keeps-node-numbers", "behavior.py",
        "        self.next_node = first\n", "",
        (BEHAVIOR + "test_nfa_without_interrupts_has_no_unreachable_node",),
    ),
    Mutant(
        "par-mark-after-first-operand", "behavior.py",
        "            first, mark = self.next_node, len(self.edges)\n"
        "            merged = self.build(node.children[0], known)\n",
        "            merged = self.build(node.children[0], known)\n"
        "            first, mark = self.next_node, len(self.edges)\n",
        (BEHAVIOR + "test_compile_par_interleaves",),
    ),
    Mutant(
        "par-product-unbounded", "behavior.py",
        "                if len(mapping) == MAX_STATES:\n                    raise _too_large()\n", "",
        (BEHAVIOR + "test_par_product_stops_at_the_state_limit",),
    ),
    Mutant(
        "watcher-epsilon-edges-untagged", "behavior.py",
        "[(s, lbl, d, True) for (s, lbl, d, _) in self.edges[mark:]]",
        "[(s, lbl, d, lbl is not None) for (s, lbl, d, _) in self.edges[mark:]]",
        (BEHAVIOR + "test_compile_matches_scan_all_edges_reference", "tests/test_export.py"),
        survives="_determinize never reads the watcher flag of an epsilon edge",
    ),
    Mutant(
        "interrupt-body-range-taken-after-the-body", "behavior.py",
        "            first = self.next_node\n            body = self.build(node.body, known)\n",
        "            body = self.build(node.body, known)\n            first = self.next_node\n",
        ("tests/test_acceptance.py::test_criterion_3_chronology_conformance",),
    ),
    Mutant(
        "interrupt-armed-from-the-second-body-node", "behavior.py",
        "for s in range(first, body_end):", "for s in range(first + 1, body_end):",
        (BEHAVIOR + "test_compile_matches_scan_all_edges_reference",),
    ),
    Mutant(
        "retag-mark-taken-before-the-body", "behavior.py",
        "            first = self.next_node\n            body = self.build(node.body, known)\n"
        "            body_end, mark = self.next_node, len(self.edges)\n",
        "            first, mark = self.next_node, len(self.edges)\n            body = self.build(node.body, known)\n"
        "            body_end = self.next_node\n",
        (BEHAVIOR + "test_compile_matches_scan_all_edges_reference",),
    ),
    Mutant(
        "shuffle-pairs-never-walked", "behavior.py",
        "                pairs.append(pair)\n", "",
        (BEHAVIOR + "test_compile_par_interleaves",),
    ),
    # The trace reader's runs and the lines it decodes, the scanner's targets
    # and the verdict writer.
    Mutant(
        "block-tails-joined-without-separator", "export.py",
        r'''text = "\x00".join(tails) + "\x00"''', r'''text = "".join(tails) + "\x00"''',
        (READER + "test_writer_output_is_read_a_block_at_a_time",),
    ),
    Mutant(
        "nul-inside-a-tail-unchecked", "export.py",
        r'''if text.count("\x00") != len(tails):''', "if False:",
        (READER + "test_a_nul_inside_a_line_does_not_split_its_tail",),
    ),
    Mutant(
        "failed-read-drops-the-lines-before-it", "export.py",
        "            yield from chain.from_iterable(_block_records(block, start, heads))\n            raise\n",
        "            raise\n",
        (READER + "test_lines_read_before_a_failed_read_are_read_first",),
    ),
    Mutant(
        "block-integers-uncapped", "export.py",
        '_INT = "-?(?:0|[1-9][0-9]{0,300})"', '_INT = "-?(?:0|[1-9][0-9]*)"',
        (READER + "test_only_a_line_with_a_longer_integer_reaches_the_decoder",),
    ),
    Mutant(
        "run-one-line-too-long", "export.py",
        r'''good = text.count("\x00", 0, _TAILS.match(text).end())''',
        r'''good = text.count("\x00", 0, _TAILS.match(text).end()) + 1''',
        (READER + "test_reader_matches_reference_on_a_bad_line_at_a_block_edge",),
    ),
    Mutant(
        "off-shape-lines-not-fast-forwarded", "export.py",
        "            if i < n and heads[block[i].partition(',\"thing\":')[0]] is not None:\n                break\n",
        "            break\n",
        (READER + "test_lines_off_the_writers_shape_do_not_each_start_a_block_check",),
    ),
    Mutant(
        "events-share-one-progress-table", "behavior.py",
        "        for e in events:\n            progress: dict[int, list] = {}\n",
        "        progress: dict[int, list] = {}\n        for e in events:\n",
        ("tests/test_occurrences.py::test_scanner_matches_reference_on_corpus_traces",),
    ),
    Mutant(
        "spawn-target-adds-to-the-traversed-set", "behavior.py",
        '("spawn", stages, other)', '("spawn", stages, move)',
        ("tests/test_occurrences.py::test_scanner_matches_reference_on_goldens_with_their_own_events",),
    ),
    Mutant(
        "consume-target-adds-to-the-traversed-set", "behavior.py",
        '("consume", stages, other)', '("consume", stages, move)',
        ("tests/test_occurrences.py::test_scanner_matches_reference_on_random_records",),
    ),
    Mutant(
        "verdict-event-name-unescaped", "cli.py",
        '"event":{quoted[event]}', '"event":"{event}"',
        ("tests/test_cli.py::test_verdict_with_non_ascii_event_names_is_what_dumps_writes",),
    ),
    # The parser's one wrong-token message, one place an item is filed, the
    # lexer's diagnostics ahead of its own, the resync after a bad sphere
    # head and an endpoint's path segments.
    Mutant(
        "wrong-token-message-without-the-token", "parser.py",
        """self.error(f"expected {what}, found '{self.cur.text or self.cur.type}'")""",
        """self.error(f"expected {what}")""",
        ("tests/test_parse_diagnostics.py::test_failed_heads_resynchronize",),
    ),
    Mutant(
        "parsed-item-not-filed", "parser.py",
        "        if decl:\n            into.append(decl)\n", "        if not decl:\n            into.append(decl)\n",
        ("tests/test_dsl.py::test_parse_minimal",),
    ),
    Mutant(
        "lexer-diagnostics-dropped", "parser.py",
        "self.tokens, self.diags = tokenize(source, file)", "self.tokens, self.diags = tokenize(source, file)[0], []",
        ("tests/test_parse_diagnostics.py::test_mutant_diagnostics_match_the_recorded_digests",),
    ),
    Mutant(
        "sphere-head-not-resynchronized", "parser.py",
        '            self.synchronize(ITEM_KEYWORDS)\n            return None\n        self.nest(start)\n',
        "            return None\n        self.nest(start)\n",
        ("tests/test_parse_diagnostics.py::test_mutant_diagnostics_match_the_recorded_digests",),
    ),
    Mutant(
        "endpoint-segment-unchecked", "parser.py",
        'seg = self.expect("IDENT", "a path segment")', "seg = self.advance()",
        ("tests/test_parse_diagnostics.py::test_endpoint_failures_keep_their_diagnostics",),
    ),
    # The collector pause, warnings-only checks and DOT order.
    Mutant(
        "collector-always-restarted", "cli.py",
        "        if collecting:\n            gc.enable()\n", "        gc.enable()\n",
        ("tests/test_gc.py::test_main_leaves_the_collector_as_it_found_it",),
    ),
    Mutant(
        "collector-never-restarted", "cli.py",
        "        if collecting:\n            gc.enable()\n", "        pass\n",
        ("tests/test_gc.py::test_main_leaves_the_collector_as_it_found_it",),
    ),
    Mutant(
        "no-reachability-for-a-failing-model", "validate.py",
        "    if warnings_if_ok or not ok:", "    if warnings_if_ok:",
        ("tests/test_cli.py::test_failing_model_prints_what_check_prints",),
    ),
    Mutant(
        "reachability-seeds-every-flow-destination", "validate.py",
        "        if arc.src.path != arc.dst.path:\n            seeds.add(arc.dst)\n", "        seeds.add(arc.dst)\n",
        ("tests/test_cli.py::test_check_findings_output_is_pinned",),
    ),
    Mutant(
        "dot-edges-in-set-order", "export.py",
        "[style=dashed{label}];\")\n    lines.extend(sorted(edge_lines))",
        "[style=dashed{label}];\")\n    lines.extend(set(edge_lines))",
        ("tests/test_cli.py::test_outputs_do_not_depend_on_the_hash_seed",),
    ),
    Mutant(
        "watcher-edge-not-dashed", "export.py",
        '''{", style=dashed" if (src, label) in watcher_edges else ""}''', "",
        ("tests/test_export.py::test_behavior_dot_matches_reference",),
    ),
    # The lexer's blocks and rescans, and the machines a chain passes.
    Mutant(
        "rescan-resumes-inside-the-word", "lexer.py",
        "pos = line_start + start_col  # one character into the word",
        "pos = line_start + start_col + 1",
        ("tests/test_lexer.py::test_tokenize_matches_reference",),
    ),
    Mutant(
        "block-cut-mid-line", "lexer.py",
        '''end = source.find("\\n", pos + _BLOCK) + 1 or n''', "end = min(pos + _BLOCK, n)",
        ("tests/test_lexer.py::test_tokenize_matches_reference_across_the_block_boundary",),
    ),
    Mutant(
        "inner-stage-on-the-wrong-side", "canon.py",
        "            machine = machines[side]\n", "            machine = machines[1 - side]\n",
        ("tests/test_model_core.py::test_chain_stages_go_to_their_own_sides_machine",),
    ),
)


def occurrences(mutant: Mutant, src: Path) -> int:
    """How often the mutant's old text occurs in the ``.py`` files under ``src``."""
    return sum(path.read_text(encoding="utf-8").count(mutant.old) for path in src.rglob("*.py"))


def pytest(root: Path, tests: list[str]) -> int:
    """The exit status of ``pytest -x -q`` on ``tests`` in the copy at ``root``:
    0 when they pass, 1 when one fails, anything else when they did not run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def killed(mutant: Mutant, root: Path) -> bool:
    """Apply the mutant in the copy at ``root``, run its tests, restore the file."""
    path = root / "src" / "fmkit" / mutant.file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    try:
        status = pytest(root, list(mutant.tests))
    finally:
        path.write_text(text, encoding="utf-8")
    if status not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {status}")
    return status == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: " + ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    for mutant in chosen:
        if occurrences(mutant, ROOT / "src") != 1:
            print(f"{mutant.name}: old text does not occur exactly once in src/", file=sys.stderr)
            return 2
    bad = 0
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
        status = pytest(root, list(dict.fromkeys(test for m in chosen for test in m.tests)))
        print(f"unmutated: pytest exited {status} in {time.perf_counter() - begin:.1f} s", flush=True)
        if status != 0:
            return 1
        for mutant in chosen:
            start = time.perf_counter()
            dead = killed(mutant, root)
            ok = dead is (mutant.survives is None)
            bad += not ok
            verdict = ("killed" if dead else "survived") + ("" if ok else " (UNEXPECTED)")
            note = f" (equivalent: {mutant.survives})" if mutant.survives and not dead else ""
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s{note}", flush=True)
    print(f"{len(chosen)} mutants, {bad} unexpected, {time.perf_counter() - begin:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
