"""Unit tests for the gateway wire protocol and the micro-batcher."""

from __future__ import annotations

import asyncio

import pytest

from repro.server import protocol
from repro.server.batcher import MicroBatcher, OverloadedError
from repro.server.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_reply,
    ok_reply,
    parse_pairs,
    parse_request,
)


class TestMessageCodec:
    def test_round_trip(self):
        doc = {"id": 7, "verb": "query", "u": 0, "v": 3}
        line = encode_message(doc)
        assert line.endswith(b"\n")
        assert b" " not in line  # compact separators
        assert decode_message(line) == doc

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(ProtocolError) as info:
            decode_message(b"{nope\n")
        assert info.value.code == protocol.ERR_BAD_REQUEST

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as info:
            decode_message(b"[1, 2]\n")
        assert info.value.code == protocol.ERR_BAD_REQUEST


class TestParseRequest:
    def test_valid_verbs(self):
        for verb in protocol.VERBS:
            request = parse_request({"id": 1, "verb": verb})
            assert request.verb == verb
            assert request.id == 1

    def test_unknown_verb(self):
        with pytest.raises(ProtocolError) as info:
            parse_request({"id": 1, "verb": "teleport"})
        assert info.value.code == protocol.ERR_UNKNOWN_VERB

    def test_missing_verb(self):
        with pytest.raises(ProtocolError) as info:
            parse_request({"id": 1})
        assert info.value.code == protocol.ERR_BAD_REQUEST

    def test_non_scalar_id(self):
        with pytest.raises(ProtocolError):
            parse_request({"id": [1], "verb": "ping"})

    def test_id_optional(self):
        assert parse_request({"verb": "ping"}).id is None


class TestParsePairs:
    def test_query_form(self):
        payload = {"verb": "query", "u": 0, "v": "x"}
        assert parse_pairs(payload) == [(0, "x")]

    def test_query_missing_field(self):
        with pytest.raises(ProtocolError):
            parse_pairs({"verb": "query", "u": 0})

    def test_batch_form(self):
        payload = {"verb": "batch", "pairs": [[0, 1], ["a", "b"]]}
        assert parse_pairs(payload) == [(0, 1), ("a", "b")]

    def test_batch_requires_list(self):
        with pytest.raises(ProtocolError):
            parse_pairs({"verb": "batch", "pairs": "0,1"})

    def test_malformed_pair(self):
        with pytest.raises(ProtocolError):
            parse_pairs({"verb": "batch", "pairs": [[0, 1, 2]]})

    def test_non_scalar_node(self):
        with pytest.raises(ProtocolError):
            parse_pairs({"verb": "batch", "pairs": [[0, {"v": 1}]]})

    def test_too_large_cap(self):
        payload = {"verb": "batch", "pairs": [[0, 1]] * 5}
        assert len(parse_pairs(payload, max_pairs=5)) == 5
        with pytest.raises(ProtocolError) as info:
            parse_pairs(payload, max_pairs=4)
        assert info.value.code == protocol.ERR_TOO_LARGE


class TestReplies:
    def test_ok_reply(self):
        assert ok_reply(3, True) == {"id": 3, "ok": True, "result": True}

    def test_error_reply(self):
        reply = error_reply(3, protocol.ERR_OVERLOADED, "shed")
        assert reply["ok"] is False
        assert reply["error"] == protocol.ERR_OVERLOADED


# ---------------------------------------------------------------------
# MicroBatcher
# ---------------------------------------------------------------------

def run(coro):
    return asyncio.run(coro)


def per_request(run_pairs):
    """Adapt a kernel stub over one flat pair list to the batcher's
    flush contract: one call per flush with the buffered request
    payloads, one answer list back per request."""

    async def run_batch(payloads: list) -> list:
        answers = await run_pairs(
            [pair for pairs in payloads for pair in pairs])
        results = []
        offset = 0
        for pairs in payloads:
            results.append(list(answers[offset:offset + len(pairs)]))
            offset += len(pairs)
        return results

    return run_batch


def make_batcher(calls: list, **kwargs) -> MicroBatcher:
    """A batcher whose kernel records every flushed pair vector and
    answers ``u <= v`` (an order any scatter bug would break)."""

    async def run_batch(pairs: list) -> list:
        calls.append(list(pairs))
        return [u <= v for u, v in pairs]

    return MicroBatcher(per_request(run_batch), **kwargs)


class TestFlushTriggers:
    def test_flush_by_size_coalesces(self):
        async def scenario():
            calls: list = []
            batcher = make_batcher(calls, max_batch=4, max_delay=60.0)
            answers = await asyncio.gather(
                batcher.submit([(0, 1), (5, 2)]),
                batcher.submit([(3, 3), (9, 1)]))
            await batcher.close()
            return calls, answers

        calls, answers = run(scenario())
        assert calls == [[(0, 1), (5, 2), (3, 3), (9, 1)]]  # one flush
        assert answers == [[True, False], [True, False]]

    def test_flush_by_deadline(self):
        async def scenario():
            calls: list = []
            batcher = make_batcher(calls, max_batch=10_000,
                                   max_delay=0.005)
            answers = await batcher.submit([(1, 2)])
            await batcher.close()
            return calls, answers

        calls, answers = run(scenario())
        assert answers == [True]
        assert calls == [[(1, 2)]]

    def test_zero_delay_is_unbatched(self):
        async def scenario():
            calls: list = []
            batcher = make_batcher(calls, max_batch=512, max_delay=0.0)
            await batcher.submit([(0, 1)])
            await batcher.submit([(2, 1)])
            await batcher.close()
            return calls

        assert run(scenario()) == [[(0, 1)], [(2, 1)]]  # one per request

    def test_multi_query_flush_counters(self):
        async def scenario():
            calls: list = []
            batcher = make_batcher(calls, max_batch=4, max_delay=60.0)
            await asyncio.gather(batcher.submit([(0, 1), (1, 2)]),
                                 batcher.submit([(2, 3), (3, 4)]))
            stats = batcher.stats()
            await batcher.close()
            return stats

        stats = run(scenario())
        assert stats["flushes"] == 1
        assert stats["multi_query_flushes"] == 1
        assert stats["flushed_requests"] == 2
        assert stats["flushed_pairs"] == 4
        assert stats["mean_flush_pairs"] == 4.0
        assert stats["occupancy_histogram"] == {"2": 1}
        assert stats["flush_pairs_histogram"] == {"4": 1}

    def test_empty_submit(self):
        async def scenario():
            batcher = make_batcher([], max_batch=4)
            answers = await batcher.submit([])
            await batcher.close()
            return answers

        assert run(scenario()) == []


class TestAdmission:
    def test_try_submit_returns_none_when_block_queue_full(self):
        async def scenario():
            batcher = make_batcher([], max_batch=10_000, max_delay=60.0,
                                   max_pending=2, policy="block")
            first = batcher.try_submit([(0, 1), (1, 2)])
            assert first is not None
            overflow = batcher.try_submit([(2, 3)])
            first.cancel()
            await batcher.close()
            return overflow

        assert run(scenario()) is None

    def test_block_policy_waits_for_room(self):
        async def scenario():
            calls: list = []
            batcher = make_batcher(calls, max_batch=2, max_delay=60.0,
                                   max_pending=2, policy="block")
            answers = await asyncio.gather(
                batcher.submit([(0, 1), (1, 2)]),
                batcher.submit([(2, 3), (3, 4)]),
                batcher.submit([(4, 5), (5, 6)]))
            await batcher.close()
            return calls, answers

        calls, answers = run(scenario())
        assert len(calls) == 3  # every request served, sequentially
        assert answers == [[True, True]] * 3

    def test_shed_policy_raises(self):
        async def scenario():
            batcher = make_batcher([], max_batch=10_000, max_delay=60.0,
                                   max_pending=2, policy="shed")
            admitted = batcher.try_submit([(0, 1), (1, 2)])
            try:
                with pytest.raises(OverloadedError):
                    batcher.try_submit([(2, 3)])
                with pytest.raises(OverloadedError):
                    await batcher.submit([(2, 3)])
                stats = batcher.stats()
            finally:
                admitted.cancel()
                await batcher.close()
            return stats

        assert run(scenario())["shed_requests"] == 2

    @pytest.mark.parametrize("policy", ["block", "shed"])
    def test_oversize_request_always_shed(self, policy):
        async def scenario():
            batcher = make_batcher([], max_pending=4, policy=policy)
            with pytest.raises(OverloadedError):
                await batcher.submit([(i, i) for i in range(5)])
            await batcher.close()

        run(scenario())

    def test_invalid_parameters(self):
        async def noop(pairs):
            return []

        with pytest.raises(ValueError):
            MicroBatcher(noop, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(noop, max_pending=0)
        with pytest.raises(ValueError):
            MicroBatcher(noop, policy="drop")

    def test_closed_batcher_sheds(self):
        async def scenario():
            batcher = make_batcher([])
            await batcher.close()
            with pytest.raises(OverloadedError):
                batcher.try_submit([(0, 1)])

        run(scenario())


class TestIsolation:
    def test_failing_member_does_not_poison_the_flush(self):
        async def scenario():
            async def run_batch(pairs: list) -> list:
                if any(u == "ghost" for u, _ in pairs):
                    raise KeyError("ghost")
                return [True] * len(pairs)

            batcher = MicroBatcher(per_request(run_batch),
                                   max_batch=4, max_delay=60.0)
            good, bad = await asyncio.gather(
                batcher.submit([(0, 1), (1, 2)]),
                batcher.submit([("ghost", 3), (4, 5)]),
                return_exceptions=True)
            stats = batcher.stats()
            await batcher.close()
            return good, bad, stats

        good, bad, stats = run(scenario())
        assert good == [True, True]  # shared-flush survivor
        assert isinstance(bad, KeyError)
        assert stats["isolation_reruns"] == 1
        assert stats["in_flight_pairs"] == 0  # admission fully released


class TestFlushFailurePaths:
    def test_hard_kernel_failure_fails_only_that_batch(self):
        """A kernel that raises for everyone fails every member of the
        flush with the exception — and the batcher keeps accepting and
        answering once the kernel recovers."""
        async def scenario():
            fail = {"armed": 2}

            async def run_batch(pairs: list) -> list:
                if fail["armed"] > 0:
                    fail["armed"] -= 1
                    raise RuntimeError("kernel down")
                return [True] * len(pairs)

            batcher = MicroBatcher(per_request(run_batch),
                                   max_batch=2, max_delay=60.0)
            # One flush of two requests: the flush call fails (1),
            # then each isolation rerun fails/succeeds per arming.
            first, second = await asyncio.gather(
                batcher.submit([(0, 1)]),
                batcher.submit([(2, 3)]),
                return_exceptions=True)
            # The batcher is still open for business afterwards (a
            # second one-pair submit fills the flush to max_batch).
            recovered, _ = await asyncio.gather(
                batcher.submit([(4, 5)]), batcher.submit([(6, 7)]))
            stats = batcher.stats()
            await batcher.close()
            return first, second, recovered, stats

        first, second, recovered, stats = run(scenario())
        # Armed twice: the shared flush burns one, the first isolated
        # rerun burns the other; the second rerun succeeds.
        assert isinstance(first, RuntimeError)
        assert second == [True]
        assert recovered == [True]
        assert stats["isolation_reruns"] == 1
        assert stats["flush_failures"] == 1
        assert stats["in_flight_pairs"] == 0

    def test_every_member_failing_releases_admission(self):
        async def scenario():
            async def run_batch(pairs: list) -> list:
                raise RuntimeError("kernel permanently down")

            batcher = MicroBatcher(per_request(run_batch),
                                   max_batch=4, max_delay=60.0,
                                   max_pending=8)
            results = await asyncio.gather(
                *[batcher.submit([(i, i + 1)]) for i in range(4)],
                return_exceptions=True)
            stats = batcher.stats()
            await batcher.close()
            return results, stats

        results, stats = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats["flush_failures"] == 4
        assert stats["in_flight_pairs"] == 0  # nothing leaked

    def test_sustained_shed_stays_explicit(self):
        """Under sustained overload with policy=shed every rejected
        submission raises OverloadedError (the gateway's 'overloaded'
        reply) — requests are never silently dropped."""
        async def scenario():
            release = asyncio.Event()

            async def run_batch(pairs: list) -> list:
                await release.wait()
                return [True] * len(pairs)

            batcher = MicroBatcher(per_request(run_batch),
                                   max_batch=1, max_delay=60.0,
                                   max_pending=2, policy="shed")
            admitted = [asyncio.ensure_future(batcher.submit([(0, 1)]))
                        for _ in range(2)]
            await asyncio.sleep(0)
            shed = 0
            for _ in range(10):
                try:
                    await batcher.submit([(2, 3)])
                except OverloadedError:
                    shed += 1
            release.set()
            answers = await asyncio.gather(*admitted)
            stats = batcher.stats()
            await batcher.close()
            return shed, answers, stats

        shed, answers, stats = run(scenario())
        assert shed == 10  # every over-capacity submit said so loudly
        assert answers == [[True], [True]]  # admitted work completed
        assert stats["shed_requests"] == 10
        assert stats["in_flight_pairs"] == 0
