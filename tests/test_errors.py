from cbckit.errors import count_text


def test_count_text_is_exact_up_to_14000_bits():
    # 2**14000 - 1 has 14,000 bits and is printed whole; 2**14000 has 14,001.
    assert count_text(2**14000 - 1) == str(2**14000 - 1)
    assert count_text(2**14000) == "at least 2^14000"
