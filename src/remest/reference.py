"""Published reference values for the birth-death instance with p = 0.3.

Rows are (k, D, N, corner price) rounded to four decimals, for k = 0..10 and
each discount factor; the k = 0 corner price is undefined (dash).

One cell is corrected: the average-cost distortion at k = 10 as printed is
3.0000, but the instance's own closed form (k^2 - 1) / (3 k) gives 3.3000,
and the printed corner prices at k = 9 and 10 are consistent only with
3.3000 (e.g. (3.3000 - 2.9630) / (0.0074 - 0.0060) = 239.47...).  The
printed 3.0000 is a transcription slip, so 3.3000 is stored here.
"""

from __future__ import annotations

BD_REFERENCE_P = 0.3

#: beta -> list of (k, D, N, corner_price_or_None)
BD_REFERENCE: dict[float, list[tuple[int, float, float, float | None]]] = {
    0.9: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.5400, 1.0989),
        (2, 0.4576, 0.1236, 4.1021),
        (3, 0.7695, 0.0475, 9.2839),
        (4, 1.0066, 0.0220, 16.2509),
        (5, 1.1844, 0.0111, 24.4478),
        (6, 1.3130, 0.0058, 33.4121),
        (7, 1.4029, 0.0031, 42.8289),
        (8, 1.4638, 0.0017, 52.5042),
        (9, 1.5040, 0.0009, 62.3245),
        (10, 1.5298, 0.0005, 72.2255),
    ],
    0.95: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.5700, 1.1050),
        (2, 0.4790, 0.1365, 4.3657),
        (3, 0.8282, 0.0565, 10.6058),
        (4, 1.1218, 0.0288, 19.9550),
        (5, 1.3715, 0.0163, 32.0869),
        (6, 1.5811, 0.0098, 46.4727),
        (7, 1.7536, 0.0061, 62.5651),
        (8, 1.8927, 0.0039, 79.8921),
        (9, 2.0028, 0.0025, 98.0854),
        (10, 2.0884, 0.0016, 116.8739),
    ],
    1.0: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.6000, 1.1111),
        (2, 0.5000, 0.1500, 4.6667),
        (3, 0.8889, 0.0667, 12.3810),
        (4, 1.2500, 0.0375, 25.9259),
        (5, 1.6000, 0.0240, 46.9697),
        (6, 1.9444, 0.0167, 77.1795),
        (7, 2.2857, 0.0122, 118.2222),
        (8, 2.6250, 0.0094, 171.7647),
        (9, 2.9630, 0.0074, 239.4737),
        (10, 3.3000, 0.0060, 323.0159),  # printed as 3.0000; see module docstring
    ],
}

#: lambda -> optimal threshold of the costly problem at beta = 0.9.  The
#: printed corner prices place each lambda inside one threshold's interval;
#: lambda = 40 lies strictly inside the k = 7 interval (33.4121, 42.8289].
BD_COSTLY_THRESHOLDS: dict[float, int] = {2.0: 2, 10.0: 4, 20.0: 5, 40.0: 7}

#: Worked-example targets for the p = 0.3, beta = 0.9 instance.
WORKED_COSTLY_PRICE = 20.0
WORKED_COSTLY_K = 5
WORKED_COSTLY_COST = 1.4064  # arithmetic on the 4-decimal table entries
WORKED_CONSTRAINED_ALPHA = 0.1
WORKED_CONSTRAINED_K = 2
WORKED_CONSTRAINED_THETA = 0.6899
WORKED_CONSTRAINED_D = 0.5543
