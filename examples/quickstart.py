"""Quickstart: hide a message in a microcontroller's SRAM and get it back.

Runs the full Invisible Bits protocol against a simulated MSP432P401:
message -> Hamming(7,4) + 7-copy repetition -> AES-CTR (nonce = device ID)
-> payload-writer firmware -> 10 h at 3.3 V / 85 C -> ship -> capture five
power-on states -> majority vote -> invert -> decrypt -> decode.

Run:  python examples/quickstart.py
"""

from repro import ControlBoard, InvisibleBits, make_device, paper_end_to_end_scheme

PRE_SHARED_KEY = b"0123456789abcdef"
MESSAGE = b"meet at the dead drop at dawn; bring the second notebook"


def main() -> None:
    # --- Alice: pick a device off the shelf and bind the channel to it.
    device = make_device("MSP432P401", rng=2024, sram_kib=8)
    board = ControlBoard(device)
    alice = InvisibleBits(
        board, scheme=paper_end_to_end_scheme(PRE_SHARED_KEY, copies=7)
    )

    print(f"device:      {device.spec.name} "
          f"({device.sram.n_bytes / 1024:g} KiB SRAM slice)")
    print(f"message:     {MESSAGE.decode()!r} ({len(MESSAGE)} bytes)")

    sent = alice.send(MESSAGE)
    print(f"encoded:     {sent.coded_bits} coded bits "
          f"({sent.capacity_used:.1%} of SRAM), "
          f"{sent.stress_hours:.0f} h stress at the Table 4 recipe")

    # --- The device travels.  It looks and works like a normal MSP432:
    # the camouflage app is in Flash and SRAM holds whatever software wrote.

    # --- Bob: same pre-shared parameters, same device, other end of the trip.
    bob = InvisibleBits(
        board, scheme=paper_end_to_end_scheme(PRE_SHARED_KEY, copies=7)
    )
    result = bob.receive()
    print(f"captures:    {result.n_captures} power-on states, majority voted")
    print(f"recovered:   {result.message.decode()!r}")
    assert result.message == MESSAGE
    print("round trip:  exact")


if __name__ == "__main__":
    main()
