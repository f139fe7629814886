"""scipy's LSODA for :func:`twistlab.ring.integrate`, imported on the first LSODA run.

``ring`` reads ``_LSODA`` and ``solve_ivp`` from here through its module
``__getattr__``, so loading ``ring`` does not load ``scipy.integrate``; the
import system runs this module once, also when two threads import it at once.
"""

import threading

from scipy.integrate import LSODA, solve_ivp   # solve_ivp: not called; the bench tracer patches ring.solve_ivp


class _LSODA(LSODA):
    """scipy's LSODA, handing every solve of one size in a thread the same work arrays.

    scipy 1.17.1's LSODA step takes a reference to the solver's work arrays
    at every step and never returns it, so each solve leaks them for good:
    8.1 MB at M = 1000 with the dense Jacobian, 5.7 MB with the fig6 band.
    Each solve copies its fresh arrays into the kept ones, so it starts from
    the same values; the leak is then one pair per size and thread.
    """

    _kept = threading.local()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lsoda, kept = self._lsoda_solver._integrator, self._kept.__dict__
        for i, name in ((4, "rwork"), (5, "iwork")):
            fresh = getattr(lsoda, name)
            work = kept.setdefault((name, fresh.size), fresh)
            work[...] = fresh
            setattr(lsoda, name, work)
            lsoda.call_args[i] = work
