"""A table of mutants: small edits to the package that named tests must catch.

Each row names a file under `src`, an exact text that occurs there once,
the text that replaces it, and the test IDs that must fail after the
edit.  For each row the script copies `src`, `tests` and `pyproject.toml`
into a temporary directory, so that the ini's `pythonpath = ["src"]`
points at the copy, applies the edit, checks that `insitu` imports from
the copy, and runs each named test there with `-x` under a timeout and
a cap on its address space; a timeout counts as caught, and so does a
test that fails with MemoryError at the cap instead of exhausting the
host's memory.  Before the rows, every named test must pass on an
unedited copy under the same cap, so a test that fails anyway cannot
stand for a catch.  The script never edits a test.

It exits 1 if a mutant survives, and 2 if the table cannot run: a row's
old text does not occur exactly once, a named test does not pass
unedited, or `insitu` imports from somewhere else.  A refactor that
moves a row's text updates the row.  Mutants that only swap equivalent
forms (a size threshold moved from 256 to 512) change no output and have
no row.  Needs the standard library and pytest:

    python tests/mutants.py
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60
MEMORY_CAP = 4 << 30  # bytes of address space for each child process

# (what the edit breaks, file, old text, new text, tests that must fail)
MUTANTS = [
    ("invert_program returns each step unchanged",
     "src/insitu/core.py",
     "        steps.append(Assignment(asg.target, table=form(inv)))",
     "        steps.append(asg)",
     ["tests/test_core.py::test_invert_program_at_every_s"]),
    ("invert_program drops the unfilled-slot check",
     "src/insitu/core.py",
     "        if None in inv:",
     "        if False:",
     ["tests/test_core.py::test_reverse_decides_bijectivity_step_by_step"]),
    ("verify always reports vertex-disjoint paths",
     "src/insitu/minsim.py",
     "got.images == tuple(mapping.images), got.is_bijective(), got.images)",
     "got.images == tuple(mapping.images), True, got.images)",
     ["tests/test_minsim.py::test_verify_constant_merges_fully"]),
    # the 2^2 census comes from tests/census.py, not from the oracle it checks
    ("min_length_bfs's one-step test skips the fiber check",
     "src/insitu/oracle.py",
     "    if len(set(zip(state, digit))) != len(set(state)):",
     "    if False:",
     ["tests/test_bijective_census.py::test_mapping_census_at_2_2"]),
    # a hand-passed universe skips the scan over i's tables only when it
    # holds every one of them, which the linear universe never does
    ("min_length_bfs takes every universe to hold every table",
     "src/insitu/oracle.py",
     "            if len(tabs) == s ** size:",
     "            if True:",
     ["tests/test_oracle_reference.py::test_all_boolean_mappings_at_n2_linear_universe"]),
    # a step adds tab[v] at place value s^(i-1), which is 1 for component 1,
    # so each form of the builder breaks only components i >= 2.  The lanes
    # keep their s values: longer ones would multiply the product's size
    ("the full universe's lanes step by 1, not by the place value",
     "src/insitu/oracle.py",
     "            images = itertools.product(*[range(r, r + s * pw, pw) for r in rest])",
     "            images = itertools.product(*[range(r, r + s) for r in rest])",
     ["tests/test_oracle_reference.py::test_full_transitions_match_step_images[2-2]",
      "tests/test_oracle_reference.py::test_full_transitions_match_step_images[3-2]"]),
    ("a listed table's values are added at place value 1",
     "src/insitu/oracle.py",
     "            images = (_add_place_values(rest, tab, pw, s) for tab in tabs)",
     "            images = (_add_place_values(rest, tab, 1, s) for tab in tabs)",
     ["tests/test_oracle_reference.py::test_listed_transitions_match_step_images[2-2]",
      "tests/test_oracle_reference.py::test_all_boolean_mappings_at_n2_linear_universe"]),
    # the boolean routing level finds by index arithmetic what the Euler
    # partition finds by scanning, so the referee is a route colored by the
    # scanning reference.  A wrong pairing leaves later levels a
    # non-permutation to walk, which may never close, so the rows name
    # tests that fail at the first level or at 2^3
    ("the boolean level's right partner skips the inverse of the targets",
     "src/insitu/benes.py",
     "    right = itemgetter(*itemgetter(*targets)(left))(inverse)",
     "    right = itemgetter(*targets)(left)",
     ["tests/test_coloring_reference.py::test_boolean_routes_match_reference_on_every_bijection[2]",
      "tests/test_benes.py::test_level_graphs_are_regular"]),
    ("the boolean level's down table is its up table",
     "src/insitu/benes.py",
     "    back = itemgetter(*inverse)(colors)",
     "    back = colors",
     ["tests/test_coloring_reference.py::test_boolean_routes_match_reference_on_every_bijection[2]",
      "tests/test_benes.py::test_route_all_boolean_pairs",
      "tests/test_pinned_outputs.py::test_compiled_text_is_pinned"
      "[bijection-2-12-benes-b3bc7c48ed9ea80d329bd556c340e822d833dcad7b1564655201f9f44b8912dd]"]),
    ("the inverse of the targets is not carried to the next level",
     "src/insitu/benes.py",
     "colors, back, targets, inverse = _boolean_level(k, pw, targets, inverse, ids, a)",
     "colors, back, targets, _ = _boolean_level(k, pw, targets, inverse, ids, a)",
     ["tests/test_coloring_reference.py::test_boolean_routes_match_reference_on_every_bijection[3]",
      "tests/test_benes.py::test_route_random[2-3-11-200]",
      "tests/test_benes.py::test_level_graphs_are_regular"]),
    # oracle.method_signature is the one spelling of each method's shape
    ("general5's reversed butterfly keeps its first stage at the junction",
     "src/insitu/oracle.py",
     "        return benes + benes[1:] + up[1:]",
     "        return benes + benes[1:] + up",
     ["tests/test_oracle.py::test_method_networks_have_the_papers_lengths[2]",
      "tests/test_pinned_outputs.py::test_pinned_programs_check_out[mapping-3-3-general5]"]),
    ("the suite never checks what a program computes",
     "src/insitu/oracle.py",
     "    if not minsim.verify(program, e).performs:",
     "    if False:",
     ["tests/test_oracle.py::test_suite_reports_wrong_programs"]),
    ("is_suffix_compatible skips one halving level",
     "src/insitu/blockseq.py",
     "    for _ in range(mapping.alphabet.n - 1):",
     "    for _ in range(mapping.alphabet.n - 2):",
     ["tests/test_kernel_reference.py::test_suffix_compatibility_matches_the_dict_scan"]),
    ("is_suffix_compatible compares cur without >> 1",
     "src/insitu/blockseq.py",
     "        if halves[0::2] != halves[1::2]:",
     "        if cur[0::2] != cur[1::2]:",
     ["tests/test_blockseq.py::test_is_suffix_compatible"]),
    ("a table token outside the digit names raises instead of reading int()",
     "src/insitu/formats.py",
     "            except KeyError:",
     "            except IndexError:",
     ["tests/test_parse_reference.py::test_tables_with_other_spellings_match_reference"]),
    # one form serves both sides of 256 indices, so each of the next two
    # rows names a test on each side
    ("assignment_table rotates the values the wrong way",
     "src/insitu/core.py",
     "            k = c * d % s",
     "            k = -c * d % s",
     ["tests/test_core.py::test_cycle_program_exhaustive[3-3-2]",
      "tests/test_kernel_reference.py::test_coefficient_tables_match_the_digit_recurrence"]),
    ("_add_place_values picks from the place values reversed",
     "src/insitu/core.py",
     "tuple(range(0, s * pw, pw))",
     "tuple(range(0, s * pw, pw))[::-1]",
     ["tests/test_linmod.py::test_to_in_situ_matches_matrix",
      "tests/test_kernel_reference.py::test_step_images_match_the_comprehension"]),
    # past 256 indices at s <= 128, traces and linear mappings run on digit
    # planes, so these rows name tests that trace there
    ("the plane reduction table is off by one",
     "src/insitu/core.py",
     "        self.reduce = bytes([x % s for x in range(256)])",
     "        self.reduce = bytes([(x + 1) % s for x in range(256)])",
     ["tests/test_kernel_reference.py::test_traces_match_the_gather_loop",
      "tests/test_linmod.py::test_linear_mapping_matches_matrix_action[4-6]"]),
    ("a digit is widened into the wrong byte of its index lane",
     "src/insitu/core.py",
     '        low = 0 if _ORDER == "little" else w - 1',
     '        low = 1 if _ORDER == "little" else w - 2',
     ["tests/test_kernel_reference.py::test_traces_match_the_gather_loop",
      "tests/test_linmod.py::test_linear_mapping_matches_matrix_action[2-12]",
      "tests/test_kernel_reference.py::test_traces_in_the_other_byte_order_match_the_gather_loop"]),
    ("a byte lane adds one residue more than fits before it is reduced",
     "src/insitu/core.py",
     "        self.room = 255 // (s - 1)",
     "        self.room = 255 // (s - 1) + 1",
     ["tests/test_kernel_reference.py::test_plane_sums_reduce_partway_through_a_row"]),
    # a trace with a table step past 256 indices at s <= 6 composes
    # backward on byte planes of index lanes, so these rows name the lane
    # referee, which calls the lane trace directly
    ("the lane trace's delta is off by one",
     "src/insitu/core.py",
     "    cuts = [(d + 1) * ones for d in range(1 - s, s - 1)]",
     "    cuts = [d * ones for d in range(1 - s, s - 1)]",
     ["tests/test_kernel_reference.py::test_lane_traces_match_the_gather_loop"]),
    ("the lane trace shifts its planes the wrong way",
     "src/insitu/core.py",
     '    sign = 8 if _ORDER == "little" else -8',
     '    sign = -8 if _ORDER == "little" else 8',
     ["tests/test_kernel_reference.py::test_lane_traces_match_the_gather_loop",
      "tests/test_kernel_reference.py::test_lane_traces_in_the_other_byte_order_match_the_gather_loop"]),
    ("the lane trace composes the steps first to last",
     "src/insitu/core.py",
     "    for asg in program.assignments[::-1]:",
     "    for asg in program.assignments:",
     ["tests/test_kernel_reference.py::test_lane_traces_match_the_gather_loop",
      "tests/test_kernel_reference.py::test_traces_match_the_gather_loop"]),
    # a program over s <= 10 in the writer's layout is read by slices and
    # written by translate; the tokenized reader and the joined names are
    # the referees
    ("the slice reader keeps a table value that no digit names",
     "src/insitu/formats.py",
     "        if 255 in table:",
     "        if False:",
     ["tests/test_parse_reference.py::test_tables_with_other_spellings_match_reference",
      "tests/test_formats.py::test_digit_tables_are_read_by_slices_or_tokens_alike"]),
    ("the translate writer drops the separator after the target",
     "src/insitu/formats.py",
     "            line[1::2] = tab.translate(_DIGITS)",
     "            line[::2] = tab.translate(_DIGITS)",
     ["tests/test_formats.py::test_writer_reproduces_the_joined_names[2-9]",
      "tests/test_pinned_outputs.py::test_compiled_text_is_pinned"
      "[bijection-2-12-benes-b3bc7c48ed9ea80d329bd556c340e822d833dcad7b1564655201f9f44b8912dd]"]),
    # a linear program holds its ring once, so each size check and the unit
    # test below is the only copy of its fact
    ("product skips its factor-size check",
     "src/insitu/linmod.py",
     "        if len(fac.coefficients) != n:",
     "        if False:",
     ["tests/test_linmod.py::test_product_empty"]),
    ("product skips its row check",
     "src/insitu/linmod.py",
     "        if not 1 <= fac.row <= n:",
     "        if False:",
     ["tests/test_linmod.py::test_product_refuses_rows_out_of_range[zero]",
      "tests/test_linmod.py::test_product_refuses_rows_out_of_range[past-n]"]),
    ("product skips its coefficient check",
     "src/insitu/linmod.py",
     '    _check_ints([c for fac in factors for c in fac.coefficients], "coefficient")',
     "    pass",
     ["tests/test_linmod.py::test_product_empty"]),
    ("LinearProgram skips its size check",
     "src/insitu/linmod.py",
     "            if len(fac.coefficients) != self.n:",
     "            if False:",
     ["tests/test_linmod.py::test_linear_program_validation"]),
    ("ModRing.is_unit calls every residue a unit",
     "src/insitu/linmod.py",
     "        return math.gcd(x, self.s) == 1",
     "        return True",
     ["tests/test_linmod.py::test_unit_multipliers_single_term",
      "tests/test_linmod.py::test_invert_rejects_non_units"]),
    # input is checked once, where it enters: the parsers, the constructors
    # and ModRing.of / MatrixMod.of check, and what the package derives does not
    ("parse_mapping skips the image check",
     "src/insitu/formats.py",
     "        return Mapping(a, images)",
     "        from .core import _unchecked; return _unchecked(Mapping, a, images)",
     ["tests/test_formats.py::test_mapping_parse_errors_carry_lines"]),
    ("execute_all checks the images it computed",
     "src/insitu/core.py",
     "    return _unchecked(Mapping, a, tuple(state))",
     "    return Mapping(a, tuple(state))",
     ["tests/test_core.py::test_mappings_are_checked_only_where_they_enter"]),
    ("ModRing.of skips the modulus type check",
     "src/insitu/linmod.py",
     '        _check_ints((s,), "modulus")',
     "        pass",
     ["tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[modulus-float]",
      "tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[modulus-str]"]),
    ("MatrixMod.of skips the entry type check",
     "src/insitu/linmod.py",
     '            _check_ints(row, "matrix entry")',
     "            pass",
     ["tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[entry-float]",
      "tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[entry-str]"]),
    ("Alphabet skips its type check",
     "src/insitu/core.py",
     '        _check_ints((self.s, self.n), "alphabet size or arity")',
     "        pass",
     ["tests/test_core.py::test_alphabet_validation"]),
    ("InSituProgram skips its target type check",
     "src/insitu/core.py",
     '        _check_ints([asg.target for asg in self.assignments], "target")',
     "        pass",
     ["tests/test_core.py::test_program_validation"]),
    ("LinearProgram skips its row type check",
     "src/insitu/linmod.py",
     '        _check_ints([fac.row for fac in self.factors], "row")',
     "        pass",
     ["tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[row-float]",
      "tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[row-str]"]),
    ("LinearProgram skips its coefficient check",
     "src/insitu/linmod.py",
     '            _check_values(fac.coefficients, self.ring.s, pos, "coefficient")',
     "            pass",
     ["tests/test_linmod.py::test_linear_program_checks_coefficients"]),
    ("decompose checks the program it derived",
     "src/insitu/linmod.py",
     "    return _unchecked(LinearProgram, ring, n, tuple(uphill)",
     "    return LinearProgram(ring, n, tuple(uphill)",
     ["tests/test_core.py::test_tables_are_checked_only_where_programs_enter"]),
    ("LinearProgram takes a non-integer n",
     "src/insitu/linmod.py",
     '        _check_ints((self.n,), "size")',
     "        pass",
     ["tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[size-float]",
      "tests/test_linmod.py::test_linear_input_types_are_checked_at_entry[size-str]"]),
    ("make_block_sequence skips its value type check",
     "src/insitu/blockseq.py",
     '    _check_ints(values, "value")',
     "    pass",
     ["tests/test_blockseq.py::test_make_block_sequence_errors"]),
    ("BlockSequence skips its value type check",
     "src/insitu/blockseq.py",
     '        _check_ints(self.values, "block sequence value")',
     "        pass",
     ["tests/test_blockseq.py::test_block_sequence_tree"]),
    ("tree_choice_count skips its type check",
     "src/insitu/blockseq.py",
     '    _check_ints((n,), "n")',
     "    pass",
     ["tests/test_blockseq.py::test_tree_choice_count"]),
    ("collapse_mapping skips its run size type check",
     "src/insitu/factor.py",
     '    _check_ints(sizes, "run size")',
     "    pass",
     ["tests/test_factor.py::test_collapse_mapping"]),
    ("execute skips its component type check",
     "src/insitu/core.py",
     '    _check_ints(digits, "component")',
     "    pass",
     ["tests/test_core.py::test_index_examples"]),
    # a sweep's conflict check is its only guard: the exact reach of its
    # butterfly, from tests/census.py, is the referee
    ("the sweep ignores a conflicting entry",
     "src/insitu/factor.py",
     "                if tab[p] != d:",
     "                if False:",
     ["tests/test_sweep_census.py::test_each_sweep_routes_exactly_its_reach_at_2_2"]),
    # the command line traces a linear program up to rng.DRAW_CAP indices
    # and checks only its factor product past it
    ("the linear trace stops at the old 4096-index --dot cap",
     "src/insitu/cli.py",
     "    if matrix.ring.s ** matrix.n <= DRAW_CAP:",
     "    if matrix.ring.s ** matrix.n <= _DOT_CAP:",
     ["tests/test_cli.py::test_linear_traces_up_to_the_draw_cap[6-5]"]),
    ("the linear trace stops one index short of the draw cap",
     "src/insitu/cli.py",
     "    if matrix.ring.s ** matrix.n <= DRAW_CAP:",
     "    if matrix.ring.s ** matrix.n < DRAW_CAP:",
     ["tests/test_cli.py::test_linear_traces_up_to_the_draw_cap[32-4]"]),
]


def _abort(message):
    print(message)
    sys.exit(2)


def _copy(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(REPO, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(REPO, "pyproject.toml"), dest)


def _cap_memory():
    # a mutant that inflates an allocation meets MemoryError, not the OOM killer
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run(copy, args, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    return subprocess.run([sys.executable, *args], cwd=copy, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_cap_memory)


def _pytest(copy, test_ids):
    return _run(copy, ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_ids],
                timeout=TIMEOUT_S)


def _check_imports_from(copy):
    found = _run(copy, ["-c", "import insitu; print(insitu.__file__)"]).stdout.strip()
    src = os.path.join(os.path.realpath(copy), "src") + os.sep
    if not os.path.realpath(found).startswith(src):
        _abort(f"insitu imports from {found!r}, not from the copy {src}")


def _apply(copy, path, old, new):
    full = os.path.join(copy, path)
    with open(full, encoding="utf-8") as f:
        text = f.read()
    if text.count(old) != 1:
        _abort(f"row no longer applies: {path} holds {old!r} {text.count(old)} times")
    with open(full, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new))


def main():
    for _, path, _, _, _ in MUTANTS:
        if not path.startswith("src/"):
            _abort(f"mutants edit the package only, not {path}")
    ids = sorted({t for row in MUTANTS for t in row[4]})
    with tempfile.TemporaryDirectory() as copy:
        _copy(copy)
        _check_imports_from(copy)
        try:
            base = _pytest(copy, ids)
        except subprocess.TimeoutExpired:
            _abort(f"the named tests take over {TIMEOUT_S} s on the unedited copy")
        if base.returncode != 0:
            print(base.stdout[-3000:])
            _abort(f"a named test does not pass on the unedited copy under the "
                   f"{MEMORY_CAP >> 30} GiB address-space cap")
    survived = 0
    for what, path, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as copy:
            _copy(copy)
            _apply(copy, path, old, new)
            _check_imports_from(copy)
            for test in tests:
                try:
                    code = _pytest(copy, [test]).returncode
                except subprocess.TimeoutExpired:
                    print(f"caught: {what}: {test} timed out after {TIMEOUT_S} s")
                    continue
                if code not in (0, 1):
                    _abort(f"row no longer applies: pytest exited {code} on {test}")
                survived += code == 0
                print(f"{'SURVIVED' if code == 0 else 'caught'}: {what}: {test} "
                      f"{'passed' if code == 0 else 'failed'}")
    print(f"{len(MUTANTS)} mutants, {survived} named tests passed a mutant")
    sys.exit(1 if survived else 0)


if __name__ == "__main__":
    main()
