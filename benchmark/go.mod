module netdiversity/benchmark

go 1.24

require netdiversity v0.0.0

replace netdiversity => ../
