"""Collect and guard nodes, run in process over the run's result sets.

A collection is a :class:`~repro.optimizer.qdg.CollectionProgram`; its
rows are computed from the step and condition results the engine already
holds (``cache``), never from a mediator table.  Two pieces of work are
shared by every program of one run (:class:`RunCollections`): the
``__id`` → row index of each table a branch climbs through, built once,
and each structurally distinct collection, built once however many guards
or collect nodes read it.

The verdicts are PAPER.md §3.3's bag and set properties, with the NULL
behaviour pinned by ``tests/test_qdg_details.py::VERDICT_CASES``:

* ``unique``: no ``(values…, group)`` tuple occurs twice (NULLs are equal
  to each other, as in SQL's ``GROUP BY``);
* ``subset``: every left tuple is on the right — except that a left tuple
  whose first field is NULL is not checked, and a NULL in any other field
  never matches (SQL's ``=``).

Values compare as Python values: ``1 == 1.0``, ``"1" != 1``, ``b"a" !=
"a"`` — what SQLite's comparisons did on the untyped columns the shipped
tables had.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import itemgetter

from repro.relational.source import ResultSet, intern_columns

_NONE = type(None)


class _Bag:
    """A built collection: its rows ``(values…, __group)``, whether any
    value may be NULL, and (on first use) the rows as a set."""

    __slots__ = ("rows", "nulls", "_set")

    def __init__(self, rows: list[tuple], nulls: bool):
        self.rows, self.nulls, self._set = rows, nulls, None

    @property
    def set(self) -> set:
        if self._set is None:
            self._set = set(self.rows)
        return self._set


class RunCollections:
    """The collections of one run over its result cache: one index per
    climbed table, each structurally distinct collection built once
    (counted as ``collection_indexes_built`` / ``collections_built`` in
    ``metrics``).  Programs list their branches in a canonical order, so
    two programs with the same branches share one build."""

    def __init__(self, metrics):
        self.metrics = metrics
        self._indexes: dict[str, dict] = {}
        self._bags: dict[tuple, _Bag] = {}

    def rows(self, program, cache: dict, root_inh: dict) -> list[tuple]:
        """A collect node's rows: the bag, deduplicated (first occurrence
        kept) for a set member."""
        rows = self._bag(program, cache, root_inh).rows
        return list(dict.fromkeys(rows)) if program.distinct else rows

    def unique_witness(self, program, cache: dict,
                       root_inh: dict) -> tuple | None:
        """The first row that occurs twice, or ``None`` (always for a set
        member, whose duplicates are gone before the check)."""
        bag = self._bag(program, cache, root_inh)
        if program.distinct or len(bag.set) == len(bag.rows):
            return None
        seen: set = set()
        for row in bag.rows:
            if row in seen:
                break
            seen.add(row)
        return row

    def subset_witness(self, left, right, cache: dict,
                       root_inh: dict) -> tuple | None:
        """The first checked left row that is not on the right, or
        ``None``."""
        left = self._bag(left, cache, root_inh)
        right = self._bag(right, cache, root_inh)
        if not (left.nulls or right.nulls) and (left is right
                                                or left.set <= right.set):
            return None
        present = (right.set if not right.nulls else
                   {row for row in right.rows if None not in row})
        for row in left.rows:
            if row[0] is not None and row not in present:
                return row
        return None

    # ------------------------------------------------------------------
    def _bag(self, program, cache: dict, root_inh: dict) -> _Bag:
        """The rows of every branch, in branch order.  Keyed by the
        branches alone: field names only label the columns."""
        bag = self._bags.get(program.branches)
        if bag is None:
            rows, nulls = [], False
            for branch in program.branches:
                branch_rows, branch_nulls = self._branch_rows(
                    branch, cache, root_inh)
                rows.extend(branch_rows)
                nulls = nulls or branch_nulls
            bag = self._bags[program.branches] = _Bag(rows, nulls)
            self.metrics.add("collections_built", 1)
        return bag

    def _index(self, table: str, result: ResultSet) -> dict:
        index = self._indexes.get(table)
        if index is None:
            rows = result.rows
            index = dict(zip(map(itemgetter(result.column_index("__id")),
                                 rows), rows))
            self._indexes[table] = index
            self.metrics.add("collection_indexes_built", 1)
        return index

    def _branch_rows(self, branch, cache: dict,
                     root_inh: dict) -> tuple[list[tuple], bool]:
        """The branch's rows, and whether a value of them may be NULL (read
        from the column types of the tables, so conservative)."""
        if branch.table is None:
            levels, results = [[()]], [None]    # the one row of the root
        else:
            results = [cache[branch.table]]
            levels = [results[0].rows]
        for table in branch.climb:
            result = cache[table]
            parent_at = results[-1].column_index("__parent")
            above = list(map(self._index(table, result).get,
                             map(itemgetter(parent_at), levels[-1])))
            if None in above:                # no parent row: joined away
                keep = [row is not None for row in above]
                levels = [list(compress(level, keep)) for level in levels]
                above = list(compress(above, keep))
            levels.append(above)
            results.append(result)
        for table, selector, branch_index, level in branch.gates:
            result = cache[table]
            selector_at = result.column_index(selector)
            picked = [row for row in result.rows
                      if row[selector_at] == branch_index]
            if level is None:
                times = [len(picked)] * len(levels[0])
            else:
                counts = Counter(map(itemgetter(
                    result.column_index("__parent")), picked))
                times = list(map(counts.__getitem__, map(
                    itemgetter(results[level].column_index("__id")),
                    levels[level])))
            if any(count != 1 for count in times):   # a row per match
                levels = [[row for row, count in zip(level_rows, times)
                           for _ in range(count)]
                          for level_rows in levels]
        size = len(levels[0])
        columns, nulls = [], False

        def column(level: int, name: str):
            nonlocal nulls
            at = results[level].column_index(name)
            nulls = nulls or _NONE in results[level].column_types()[at]
            return map(itemgetter(at), levels[level])

        for value in branch.values:
            if value[0] == "column":
                columns.append(column(value[1], value[2]))
            else:
                constant = (root_inh[value[1]] if value[0] == "root"
                            else value[1])
                nulls = nulls or constant is None
                columns.append(repeat(constant, size))
        columns.append(repeat(0, size) if branch.group is None
                       else column(*branch.group))
        return list(zip(*columns)), nulls


def guard_output(node, collections: RunCollections, cache: dict,
                 root_inh: dict) -> ResultSet:
    """A guard's verdict as a result: empty when it holds, else its first
    witness ``(values…, __group)``."""
    programs = node.collections
    if node.guard.kind == "unique":
        witness = collections.unique_witness(programs[0], cache, root_inh)
    else:
        witness = collections.subset_witness(*programs, cache, root_inh)
    return ResultSet(intern_columns(programs[0].fields + ("__group",)),
                     [] if witness is None else [witness])


def describe_witness(node, output: ResultSet) -> str:
    """A violated guard's witness: the group row and the duplicated
    (``unique``) or missing (``subset``) value tuple."""
    width = len(node.collections[0].fields)
    row = output.rows[0]                 # (values…, __group, __id)
    verdict = "duplicated" if node.guard.kind == "unique" else "missing"
    return f"group row __id={row[width]!r}, {verdict} {row[:width]!r}"
