"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCALE

Set-up is importing faultring, building the workload's inputs from the seed
and loading the pinned expectations. The time printed is at the reference
speed: it is divided by the calibration kernel's time around the set-up (see
calibration.py). run.py starts this several times and reports the median as
setup_s.
"""

if __name__ == "__main__":
    import sys
    import time

    import calibration

    kernel_before = calibration.kernel_seconds()
    start = time.perf_counter()
    import workloads

    workloads.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    seconds = time.perf_counter() - start
    kernel_s = (kernel_before + calibration.kernel_seconds()) / 2
    print(calibration.reference_seconds(seconds, kernel_s))
