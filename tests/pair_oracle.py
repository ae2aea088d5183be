"""An independent evaluation of one pair's matching utility, for the tests."""

import math


def oracle_pair(net, a, b, max_delay_s):
    """The utility of serving rides a and b together, straight from the
    definitions: the four pickup-first orderings, each allowed if the ride
    picked up second waits at most max_delay_s and every leg is reachable."""
    nodes = [a.pickup_node, a.dropoff_node, b.pickup_node, b.dropoff_node]
    d = dict(zip(nodes, net.distance_matrix(nodes)))
    a_s, a_t, b_s, b_t = nodes
    orderings = [  # (the second pickup's wait, combined cost)
        (d[a_s][b_s], d[a_s][b_s] + d[b_s][a_t] + d[a_t][b_t]),  # <a_s, b_s, a_t, b_t>
        (d[a_s][b_s], d[a_s][b_s] + b.cost + d[b_t][a_t]),  # <a_s, b_s, b_t, a_t>
        (d[b_s][a_s], d[b_s][a_s] + d[a_s][b_t] + d[b_t][a_t]),  # <b_s, a_s, b_t, a_t>
        (d[b_s][a_s], d[b_s][a_s] + a.cost + d[a_t][b_t]),  # <b_s, a_s, a_t, b_t>
    ]
    allowed = [cost for wait, cost in orderings if wait <= max_delay_s and math.isfinite(cost)]
    if not allowed or abs(a.request_time - b.request_time) > max_delay_s:
        return 0.0
    return max(0.0, a.cost + b.cost - min(allowed))
