"""Drive per-node step callables over ``Network.exchange``, and read a
broadcast's deliveries per edge (tests only)."""

from repro.utils.rng import RngStream


def run_rounds(network, step, seed=0, label="program", max_rounds=100):
    """Run rounds until every node halts; returns ``(rounds, halted)``.

    In round ``r`` (from 0) each node ``v`` not yet halted runs
    ``step(v, r, inbox, rng)``: ``inbox`` maps each sender to the payload
    it delivered to ``v`` last round, and ``rng`` is ``v``'s own
    ``RngStream(seed).for_node(v)`` stream, advancing across rounds.  The
    call returns ``(sends, done)``: the ``{neighbour: payload}`` messages
    to send this round, and whether ``v`` halts after sending them.
    ``max_rounds`` stops a run whose nodes never halt.
    """
    stream = RngStream(seed)
    rngs = {v: stream.for_node(v) for v in network.nodes}
    halted, inboxes, rounds = set(), {}, 0
    while len(halted) < len(rngs) and rounds < max_rounds:
        if network.tracer is not None:
            network.tracer.note_nodes(len(rngs) - len(halted), len(rngs))
        outgoing = {}
        for v, rng in rngs.items():
            if v not in halted:
                sends, done = step(v, rounds, inboxes.get(v, {}), rng)
                outgoing.update(((v, u), p) for u, p in sends.items())
                if done:
                    halted.add(v)
        inboxes = {}
        for (u, v), payload in network.exchange(outgoing, label=label).items():
            inboxes.setdefault(v, {})[u] = payload
        rounds += 1
    return rounds, halted


def by_edge(network, deliveries):
    """A broadcast's deliveries as ``{(sender, receiver): payload}``.

    A round delivers at most one message per directed edge, so the mapping
    loses nothing.
    """
    senders, receivers, payloads = deliveries.labelled(network.nodes)
    return dict(zip(zip(senders, receivers), payloads))
