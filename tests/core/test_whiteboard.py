"""Tests for the whiteboard containers."""

import dataclasses
import pickle

import pytest

from repro.core import SYNC, MinIdScheduler, run
from repro.core.protocol import NodeView
from repro.core.whiteboard import BoardView, Entry, Whiteboard
from repro.encoding.bits import payload_bits
from repro.graphs import generators as gen
from repro.protocols.bfs import BfsRecord, SyncBfsProtocol


class TestWhiteboard:
    def test_write_records_metadata(self):
        wb = Whiteboard()
        e = wb.write(3, (3, "x"), round_written=1)
        assert e.author == 3 and e.index == 0 and e.round_written == 1
        assert e.bits == payload_bits((3, "x"))

    def test_view_is_snapshot(self):
        wb = Whiteboard()
        wb.write(1, (1,), 1)
        view = wb.view()
        wb.write(2, (2,), 2)
        assert len(view) == 1 and len(wb.view()) == 2

    def test_authors_and_lookup(self):
        wb = Whiteboard()
        wb.write(2, "a", 1)
        wb.write(5, "b", 2)
        assert wb.authors() == {2, 5}
        assert wb.payload_of(5) == "b"
        with pytest.raises(KeyError):
            wb.payload_of(9)

    def test_bit_totals(self):
        wb = Whiteboard()
        assert wb.max_bits() == 0 and wb.total_bits() == 0
        wb.write(1, 7, 1)
        wb.write(2, (1, 2, 3), 2)
        assert wb.total_bits() == payload_bits(7) + payload_bits((1, 2, 3))
        assert wb.max_bits() == payload_bits((1, 2, 3))
        assert len(wb) == 2


class TestBoardView:
    def test_sequence_protocol(self):
        v = BoardView((10, 20, 30))
        assert len(v) == 3 and v[1] == 20 and list(v) == [10, 20, 30]
        assert v.last == 30 and not v.empty

    def test_empty(self):
        v = BoardView(())
        assert v.empty
        with pytest.raises(IndexError):
            _ = v.last


class TestRecordSemantics:
    @pytest.mark.parametrize("record, field", [
        (Entry(0, 1, (1,), 5, 1), "bits"),
        (NodeView(1, frozenset({2}), 2, BoardView(())), "board"),
        (BfsRecord(1, 0, "ROOT", 0, 0, 1), "layer"),
    ], ids=["Entry", "NodeView", "BfsRecord"])
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_node_view_degree(self):
        assert NodeView(1, frozenset({2, 3}), 3, BoardView(())).degree == 2

    def test_board_view_equality_ignores_parent_and_fold_memo(self):
        grown = BoardView(()).extended(1).extended(2)
        grown.fold(lambda acc, p: acc + p, 0)
        fresh = BoardView((1, 2))
        assert grown.parent is not None and fresh.parent is None
        assert grown._folds and not fresh._folds
        assert grown == fresh and hash(grown) == hash(fresh)
        assert grown != BoardView((2, 1))

    def test_board_view_eq_defers_to_other_types(self):
        view = BoardView((1,))
        assert view.__eq__((1,)) is NotImplemented
        assert view != (1,)

    def test_board_view_repr(self):
        view = BoardView(()).extended((1, "a"))
        assert repr(view) == "BoardView(payloads=((1, 'a'),))"

    def test_run_result_pickle_round_trip(self):
        """Exhaustive lots ship RunResults across the pool by pickle."""
        result = run(gen.cycle_graph(5), SyncBfsProtocol(), SYNC,
                     MinIdScheduler())
        back = pickle.loads(pickle.dumps(result))
        for f in dataclasses.fields(result):
            assert getattr(back, f.name) == getattr(result, f.name), f.name
        assert all(type(e) is Entry for e in back.board.entries)
