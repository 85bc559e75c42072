"""Reference barrier schedule for :class:`repro.coupling.Bridge`.

The kick–drift–kick step written out with phase barriers: every
system's first kick, then each system's drift one at a time, then
every system's second kick.  It is the ordering the bridge's step
graph must reproduce (its edges are exactly these phases' data
dependencies), so the graph-vs-barrier equality tests compare
``Bridge.evolve_model`` against it.  Not a second code path: nothing
under ``src/`` imports it.
"""

from repro.units import Quantity, nbody_system


def _kick_all(bridge, dt):
    """Every kicked system's partner field, summed in partner order
    and times *dt*, applied to the worker and to its mirror."""
    for code, partners in bridge.systems:
        if not partners or not len(code.particles):
            continue
        pos = code.particles.position
        eps = bridge._eps_for(code, Quantity(0.0, nbody_system.length))
        total = None
        for partner in partners:
            acc = partner.get_gravity_at_point(eps, pos)
            total = acc if total is None else total + acc
        dv = total * dt
        code.kick(dv)
        code.particles.velocity = code.particles.velocity + dv


def barrier_evolve(bridge, t_end):
    """Advance *bridge* to *t_end* with phase barriers between the
    kicks and the sequential drifts."""
    while bridge.time < t_end - 1e-12 * bridge.timestep:
        dt = bridge.timestep
        remaining = t_end - bridge.time
        if remaining < dt:
            dt = remaining
        half = dt * 0.5
        _kick_all(bridge, half)
        for code, _partners in bridge.systems:
            code.evolve_model(bridge.time + dt)
        _kick_all(bridge, half)
        bridge.time = bridge.time + dt
    return bridge.time
